package control

import (
	"math"
	"testing"

	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

func newSimLoop(t *testing.T, sampling SamplingOptions, pol policy.Policy) *Loop {
	t.Helper()
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Options{
		Platform: sp,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return pol, nil },
		Sampling: sampling,
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// TestSampledRunBitIdenticalToDetailed is the core sampled-simulation
// contract: an extrapolated run observes the exact same IPS stream —
// bit for bit, including the noise draws — as a fully detailed run, so
// enabling sampling can never move a golden.
func TestSampledRunBitIdenticalToDetailed(t *testing.T) {
	detailed := newSimLoop(t, SamplingOptions{}, policy.Static{})
	sampled := newSimLoop(t, SamplingOptions{Enabled: true}, policy.Static{})
	const ticks = 400
	for i := 0; i < ticks; i++ {
		sd, err := detailed.Step()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := sampled.Step()
		if err != nil {
			t.Fatal(err)
		}
		for j := range sd.IPS {
			if sd.IPS[j] != ss.IPS[j] {
				t.Fatalf("tick %d job %d: sampled IPS %v != detailed %v", i+1, j, ss.IPS[j], sd.IPS[j])
			}
		}
		if sd.Throughput != ss.Throughput || sd.Fairness != ss.Fairness {
			t.Fatalf("tick %d: sampled scores (%v, %v) != detailed (%v, %v)",
				i+1, ss.Throughput, ss.Fairness, sd.Throughput, sd.Fairness)
		}
	}
	sum := sampled.Summary()
	if sum.SampledTicks == 0 {
		t.Fatal("sampling enabled on a static phase-stable run but no tick was extrapolated")
	}
	if detailed.Summary().SampledTicks != 0 {
		t.Fatal("detailed loop reported sampled ticks")
	}
	t.Logf("extrapolated %d of %d ticks", sum.SampledTicks, ticks)
}

// TestSampledReTriggersDetailedOnChurn: a mix change (ReplaceJob) and a
// membership change (AddJob) must each knock the loop out of
// extrapolation and force at least StableTicks detailed intervals before
// sampling can resume.
func TestSampledReTriggersDetailedOnChurn(t *testing.T) {
	const k = 5
	loop := newSimLoop(t, SamplingOptions{Enabled: true, StableTicks: k}, policy.Static{})
	warmUntilSampled := func(label string) {
		t.Helper()
		for i := 0; i < 300; i++ {
			st, err := loop.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.SampledTick {
				return
			}
		}
		t.Fatalf("%s: no extrapolated tick within 300 intervals", label)
	}
	expectDetailedRun := func(label string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			st, err := loop.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.SampledTick {
				t.Fatalf("%s: tick %d after churn was extrapolated; want >= %d detailed ticks", label, i+1, n)
			}
		}
	}
	warmUntilSampled("initial")
	if err := loop.ReplaceJob(0, workloads.PARSEC()[4]); err != nil {
		t.Fatal(err)
	}
	expectDetailedRun("mix change", k)
	warmUntilSampled("after mix change")
	if err := loop.AddJob(workloads.PARSEC()[5]); err != nil {
		t.Fatal(err)
	}
	expectDetailedRun("job arrival", k)
	warmUntilSampled("after job arrival")
}

// TestSampledMaxRunForcesRevalidation: extrapolation must pause for a
// detailed tick after MaxRun consecutive sampled intervals.
func TestSampledMaxRunForcesRevalidation(t *testing.T) {
	const maxRun = 7
	loop := newSimLoop(t, SamplingOptions{Enabled: true, MaxRun: maxRun}, policy.Static{})
	run := 0
	for i := 0; i < 500; i++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.SampledTick {
			run++
			if run > maxRun {
				t.Fatalf("tick %d: %d consecutive extrapolated ticks exceeds MaxRun=%d", i+1, run, maxRun)
			}
		} else {
			run = 0
		}
	}
	if loop.Summary().SampledTicks == 0 {
		t.Fatal("no extrapolated ticks at all")
	}
}

// corruptPlatform injects a corrupt observation every badEvery samples,
// modeling a wedged hardware counter or a torn resctrl read.
type corruptPlatform struct {
	*rdt.SimPlatform
	badEvery int
	badValue float64
	calls    int
}

func (c *corruptPlatform) Sample() ([]float64, error) {
	ips, err := c.SimPlatform.Sample()
	c.calls++
	if err == nil && c.badEvery > 0 && c.calls%c.badEvery == 0 && len(ips) > 0 {
		ips[0] = c.badValue
	}
	return ips, err
}

// countingPolicy counts Decide calls while holding the configuration.
type countingPolicy struct{ decides int }

func (p *countingPolicy) Name() string { return "counting" }
func (p *countingPolicy) Decide(_ policy.Observation, cur resource.Config) resource.Config {
	p.decides++
	return cur
}

// TestBadSampleRejected: non-finite or negative IPS must be flagged and
// skipped — no metric accumulation, no policy consultation, configuration
// held — instead of silently poisoning the run aggregates.
func TestBadSampleRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), -3.5} {
		profiles := workloads.PARSEC()[:2]
		simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := rdt.NewSimPlatform(simulator)
		if err != nil {
			t.Fatal(err)
		}
		cp := &corruptPlatform{SimPlatform: sp, badEvery: 10, badValue: bad}
		pol := &countingPolicy{}
		loop, err := New(Options{
			Platform: cp,
			Policy:   func(rdt.Platform) (policy.Policy, error) { return pol, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		const ticks = 50
		badTicks := 0
		for i := 0; i < ticks; i++ {
			st, err := loop.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.Held == HeldSampleCorrupt {
				badTicks++
				if !st.Config.Equal(loop.current) {
					t.Fatal("bad sample changed the configuration")
				}
			} else if math.IsNaN(st.Throughput) || st.Throughput < 0 {
				t.Fatalf("bad=%v: corrupt observation leaked into scores: %v", bad, st.Throughput)
			}
		}
		sum := loop.Summary()
		if want := ticks / 10; badTicks != want || sum.BadSamples != want {
			t.Fatalf("bad=%v: flagged %d ticks, summary %d, want %d", bad, badTicks, sum.BadSamples, want)
		}
		if pol.decides != ticks-badTicks {
			t.Fatalf("bad=%v: policy consulted %d times, want %d (bad ticks skipped)", bad, pol.decides, ticks-badTicks)
		}
		if math.IsNaN(sum.MeanThroughput) || math.IsNaN(sum.MeanFairness) {
			t.Fatalf("bad=%v: summary aggregates poisoned: %+v", bad, sum)
		}
	}
}
