package workloads

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"satori/internal/sim"
)

// TestLCSpecCalibration pins the property the SLO experiment depends
// on: every LC profile's critical IPS is reachable on the default
// machine (a generous allocation attains), and the suite contains jobs
// that genuinely violate under the equal split (the recoverable-
// violation regime) as well as at least one that attains comfortably.
func TestLCSpecCalibration(t *testing.T) {
	batch := PARSEC()
	violators := 0
	for _, p := range LC() {
		mix := []*sim.Profile{p, batch[1], batch[2], batch[4], batch[5]}
		s, err := sim.New(sim.DefaultMachine(), mix, sim.Options{Seed: 1, NoiseSigma: -1})
		if err != nil {
			t.Fatal(err)
		}
		crit := p.SLO.CriticalIPS()

		eq, err := s.ExactIPS(s.Current())
		if err != nil {
			t.Fatal(err)
		}
		if p.SLO.Violating(eq[0]) {
			violators++
		}

		// A generous allocation: half of every resource to the LC job,
		// the rest split across the batch jobs.
		sp := s.Space()
		c := sp.NewConfig()
		for r := range c.Alloc {
			total := sp.Resources[r].Units
			give := total / 2
			c.Alloc[r][0] = give
			rest := total - give
			for j := 1; j < len(mix); j++ {
				c.Alloc[r][j] = rest / (len(mix) - 1)
			}
			for j := 0; j < rest-(rest/(len(mix)-1))*(len(mix)-1); j++ {
				c.Alloc[r][1+j%(len(mix)-1)]++
			}
		}
		gen, err := s.ExactIPS(c)
		if err != nil {
			t.Fatal(err)
		}
		if gen[0] <= crit {
			t.Errorf("%s: generous allocation IPS %.3g does not clear critical %.3g — SLO unrecoverable", p.Name, gen[0], crit)
		}
	}
	if violators == 0 {
		t.Errorf("no LC profile violates under the equal split — the SLO experiment would have nothing to recover")
	}
	if violators == len(LC()) {
		t.Errorf("every LC profile violates under the equal split — want at least one comfortable service for diversity")
	}
}

func TestMixedMixesDeterministicAndShaped(t *testing.T) {
	opt := MixedMixOptions{Jobs: 5, LCFraction: 0.4, Count: 6, Seed: 42, TargetScaleMin: 0.8, TargetScaleMax: 1.25}
	a, err := MixedMixes(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MixedMixes(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 {
		t.Fatalf("got %d mixes, want 6", len(a))
	}
	for i := range a {
		if strings.Join(a[i].Names(), ",") != strings.Join(b[i].Names(), ",") {
			t.Fatalf("mix %d not deterministic: %v vs %v", i, a[i].Names(), b[i].Names())
		}
		nLC := 0
		for _, p := range a[i].Profiles {
			if err := p.Validate(); err != nil {
				t.Fatalf("mix %d: %v", i, err)
			}
			if p.SLO != nil {
				nLC++
			}
		}
		if nLC != 2 || len(a[i].Profiles) != 5 {
			t.Fatalf("mix %d: %d LC of %d jobs, want 2 of 5", i, nLC, len(a[i].Profiles))
		}
	}
	// Scaling must not alias suite storage: the suite's own targets are
	// untouched by generating scaled mixes.
	orig := LC()[0].SLO.TargetP99
	if _, err := MixedMixes(MixedMixOptions{TargetScaleMin: 0.5, TargetScaleMax: 0.5, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if LC()[0].SLO.TargetP99 != orig {
		t.Fatalf("MixedMixes mutated suite storage")
	}
	// Different seeds draw different mixes.
	c, err := MixedMixes(MixedMixOptions{Jobs: 5, LCFraction: 0.4, Count: 6, Seed: 43, TargetScaleMin: 0.8, TargetScaleMax: 1.25})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if strings.Join(a[i].Names(), ",") != strings.Join(c[i].Names(), ",") {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 generated identical mix lists")
	}
}

// TestMixedMixesRefusesBadOptions: a NaN or infinite scale used to name
// jobs "search-lc--9223372036854775808ms[p99<=NaNms]", a NaN fraction to
// list the paper mixes (cmd/mixes), a fraction of 2 to make every slot LC,
// and a maximum below the minimum to run the minimum. Zero still takes the
// default: a zero maximum is the minimum.
func TestMixedMixesRefusesBadOptions(t *testing.T) {
	for _, c := range []struct {
		name string
		opt  MixedMixOptions
		want string
	}{
		{"NaN fraction", MixedMixOptions{LCFraction: math.NaN()}, "LC fraction NaN"},
		{"negative fraction", MixedMixOptions{LCFraction: -0.4}, "LC fraction -0.4"},
		{"fraction above 1", MixedMixOptions{LCFraction: 2}, "LC fraction 2"},
		{"NaN minimum", MixedMixOptions{TargetScaleMin: math.NaN()}, "minimum NaN"},
		{"infinite minimum", MixedMixOptions{TargetScaleMin: math.Inf(1)}, "minimum +Inf"},
		{"negative minimum", MixedMixOptions{TargetScaleMin: -1}, "minimum -1"},
		{"infinite maximum", MixedMixOptions{TargetScaleMin: 1, TargetScaleMax: math.Inf(1)}, "maximum +Inf"},
		{"NaN maximum", MixedMixOptions{TargetScaleMin: 1, TargetScaleMax: math.NaN()}, "maximum NaN"},
		{"maximum below minimum", MixedMixOptions{TargetScaleMin: 2, TargetScaleMax: 1}, "maximum 1 is below the minimum 2"},
	} {
		mixes, err := MixedMixes(c.opt)
		if err == nil {
			t.Errorf("%s: accepted, first mix %v", c.name, mixes[0].Names())
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error does not mention %q: %v", c.name, c.want, err)
		}
	}
	// A zero maximum is the minimum: every LC target scaled by exactly 2.
	mixes, err := MixedMixes(MixedMixOptions{LCFraction: 1, TargetScaleMin: 2, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]float64{}
	for _, p := range LC() {
		base[p.Name] = p.SLO.TargetP99
	}
	for _, m := range mixes {
		for _, p := range m.Profiles {
			name := p.Name[:strings.LastIndex(p.Name, "-")]
			if p.SLO == nil || p.SLO.TargetP99 != 2*base[name] {
				t.Errorf("mix %d: %s not scaled by 2 (base %v)", m.Index, p.Name, base[name])
			}
		}
	}
}

func TestJSONRoundTripSLO(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, LC()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"target_p99"`) {
		t.Fatalf("serialized LC profiles carry no slo section:\n%s", buf.String())
	}
	got, err := ReadProfiles(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range LC() {
		g := got[i]
		if g.SLO == nil {
			t.Fatalf("%s: SLO lost in round trip", p.Name)
		}
		if *g.SLO != *p.SLO {
			t.Fatalf("%s: SLO round trip mismatch: %+v vs %+v", p.Name, g.SLO, p.SLO)
		}
	}
	// Batch profiles stay SLO-free (and the field is omitted on disk).
	buf.Reset()
	if err := WriteProfiles(&buf, PARSEC()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "slo") {
		t.Fatalf("batch profiles serialized an slo section")
	}
}
