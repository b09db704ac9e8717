package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"satori/internal/resource"
	"satori/internal/slo"
	"satori/internal/stats"
)

func testProfile(name string) *Profile {
	return &Profile{
		Name: name, Suite: "test",
		Phases: []Phase{
			{
				Name: "a", Instructions: 1e10, IPSPeak: 2e10,
				SerialFrac: 0.05, MPIMax: 0.012, MPIMin: 0.004,
				WaysHalf: 2.5, MemStallCost: 180, PowerSensitivity: 0.6,
			},
			{
				Name: "b", Instructions: 6e9, IPSPeak: 1.5e10,
				SerialFrac: 0.2, MPIMax: 0.02, MPIMin: 0.012,
				WaysHalf: 1.2, MemStallCost: 220, PowerSensitivity: 0.4,
			},
		},
	}
}

func newTestSim(t *testing.T, jobs int, opt Options) *Simulator {
	t.Helper()
	ps := make([]*Profile, jobs)
	names := []string{"j0", "j1", "j2", "j3", "j4"}
	for i := range ps {
		ps[i] = testProfile(names[i])
	}
	s, err := New(DefaultMachine(), ps, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMachineValidate(t *testing.T) {
	if err := DefaultMachine().Validate(); err != nil {
		t.Errorf("default machine invalid: %v", err)
	}
	bad := DefaultMachine()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("0-core machine accepted")
	}
	bad = DefaultMachine()
	bad.LineBytes = 0
	if bad.Validate() == nil {
		t.Error("0 line size accepted")
	}
	bad = DefaultMachine()
	bad.PowerUnits = 4
	bad.MinPowerScale = 0
	if bad.Validate() == nil {
		t.Error("invalid MinPowerScale accepted")
	}
}

func TestMachineSpace(t *testing.T) {
	space, err := DefaultMachine().Space(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(space.Resources) != 3 {
		t.Errorf("default space has %d resources, want 3 (no power)", len(space.Resources))
	}
	withPower := DefaultMachine()
	withPower.PowerUnits = 8
	space, err = withPower.Space(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(space.Resources) != 4 {
		t.Errorf("power-enabled space has %d resources, want 4", len(space.Resources))
	}
}

func TestPhaseValidate(t *testing.T) {
	good := testProfile("x").Phases[0]
	if err := good.Validate(); err != nil {
		t.Errorf("valid phase rejected: %v", err)
	}
	// Each rejection path must fire AND blame the offending field by
	// name — a profile author debugging a hand-written JSON file only
	// sees this string.
	cases := []struct {
		name string
		mut  func(*Phase)
		want string
	}{
		{"zero instructions", func(p *Phase) { p.Instructions = 0 }, "Instructions"},
		{"negative instructions", func(p *Phase) { p.Instructions = -1e9 }, "Instructions"},
		{"zero ips peak", func(p *Phase) { p.IPSPeak = 0 }, "IPSPeak"},
		{"negative serial frac", func(p *Phase) { p.SerialFrac = -0.1 }, "SerialFrac"},
		{"serial frac above one", func(p *Phase) { p.SerialFrac = 1.1 }, "SerialFrac"},
		{"negative mpi min", func(p *Phase) { p.MPIMin = -1 }, "MPIMin"},
		{"mpi max below min", func(p *Phase) { p.MPIMax = p.MPIMin / 2 }, "MPIMin"},
		{"zero ways half", func(p *Phase) { p.WaysHalf = 0 }, "WaysHalf"},
		{"negative stall cost", func(p *Phase) { p.MemStallCost = -1 }, "MemStallCost"},
		{"power sensitivity above one", func(p *Phase) { p.PowerSensitivity = 2 }, "PowerSensitivity"},
		{"negative power sensitivity", func(p *Phase) { p.PowerSensitivity = -0.5 }, "PowerSensitivity"},
	}
	for _, tc := range cases {
		p := good
		tc.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
		if !strings.Contains(err.Error(), p.Name) {
			t.Errorf("%s: error %q does not name the phase %q", tc.name, err, p.Name)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	if err := testProfile("ok").Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	if (&Profile{Name: "", Phases: testProfile("x").Phases}).Validate() == nil {
		t.Error("empty name accepted")
	}
	if (&Profile{Name: "y"}).Validate() == nil {
		t.Error("phase-less profile accepted")
	}
	// A bad phase is rejected and attributed to the profile.
	bad := testProfile("attrib")
	bad.Phases[1].WaysHalf = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "attrib") {
		t.Errorf("bad-phase error %v does not name the profile", err)
	}
	// An ill-formed SLO section fails profile validation too: LC specs
	// ride Profile.Validate so every load path (JSON, API churn, mixes)
	// rejects them at the same gate.
	lc := testProfile("lc")
	lc.SLO = &slo.Spec{TargetP99: -0.01, ServiceInstructions: 1e6, ArrivalRate: 100}
	if err := lc.Validate(); err == nil || !strings.Contains(err.Error(), "lc") {
		t.Errorf("invalid SLO spec: err = %v, want profile-attributed rejection", err)
	}
	lc.SLO = &slo.Spec{TargetP99: 0.01, ServiceInstructions: 1e6, ArrivalRate: 100}
	if err := lc.Validate(); err != nil {
		t.Errorf("valid LC profile rejected: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultMachine(), nil, Options{}); err == nil {
		t.Error("no jobs accepted")
	}
	bad := DefaultMachine()
	bad.Cores = 0
	if _, err := New(bad, []*Profile{testProfile("a")}, Options{}); err == nil {
		t.Error("invalid machine accepted")
	}
	broken := testProfile("b")
	broken.Phases[0].IPSPeak = -1
	if _, err := New(DefaultMachine(), []*Profile{broken}, Options{}); err == nil {
		t.Error("invalid profile accepted")
	}
	// More jobs than units of a resource.
	ps := make([]*Profile, 12)
	for i := range ps {
		ps[i] = testProfile("j")
	}
	if _, err := New(DefaultMachine(), ps, Options{}); err == nil {
		t.Error("12 jobs on a 10-core machine accepted")
	}
}

func TestAmdahl(t *testing.T) {
	if got := amdahl(1, 0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("amdahl(1) = %g, want 1", got)
	}
	// serial 0: linear scaling.
	if got := amdahl(8, 0); math.Abs(got-8) > 1e-12 {
		t.Errorf("amdahl(8, 0) = %g, want 8", got)
	}
	// serial 1: no scaling.
	if got := amdahl(8, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("amdahl(8, 1) = %g, want 1", got)
	}
	// classic: f=0.5, 2 cores -> 1/(0.5+0.25) = 4/3.
	if got := amdahl(2, 0.5); math.Abs(got-4.0/3.0) > 1e-12 {
		t.Errorf("amdahl(2, 0.5) = %g, want 4/3", got)
	}
}

func TestMissRatioCurve(t *testing.T) {
	p := Phase{MPIMax: 0.02, MPIMin: 0.005, WaysHalf: 2}
	// At 1 way, exactly MPIMax.
	if got := p.mpi(1); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("mpi(1) = %g, want MPIMax", got)
	}
	// Monotone decreasing in ways, bounded below by MPIMin.
	prev := math.Inf(1)
	for w := 1; w <= 20; w++ {
		m := p.mpi(w)
		if m > prev {
			t.Fatalf("mpi not monotone at %d ways", w)
		}
		if m < p.MPIMin {
			t.Fatalf("mpi below floor at %d ways: %g", w, m)
		}
		prev = m
	}
	if got := p.mpi(100); math.Abs(got-p.MPIMin) > 1e-6 {
		t.Errorf("mpi(100) = %g, want ~MPIMin", got)
	}
}

func TestMoreResourcesNeverHurt(t *testing.T) {
	// The noise-free model must be monotone: growing any single
	// resource (for a fixed phase) cannot decrease IPS.
	s := newTestSim(t, 2, Options{Seed: 1, NoiseSigma: -1})
	p := testProfile("x").Phases[0]
	base := alloc{cores: 3, ways: 4, bw: 3}
	ipsBase := s.ipsModel(p, base)
	for _, grown := range []alloc{
		{cores: 4, ways: 4, bw: 3},
		{cores: 3, ways: 5, bw: 3},
		{cores: 3, ways: 4, bw: 4},
	} {
		if got := s.ipsModel(p, grown); got < ipsBase-1e-6 {
			t.Errorf("growing %+v -> %+v decreased IPS: %g -> %g", base, grown, ipsBase, got)
		}
	}
}

func TestCacheBandwidthCoupling(t *testing.T) {
	// The paper's core motivation for joint exploration: when a job is
	// bandwidth-bound, extra cache ways must reduce traffic and help;
	// extra bandwidth must help too; and giving ways helps MORE when
	// bandwidth is also grown than alone (complementarity around the
	// roofline knee).
	s := newTestSim(t, 2, Options{NoiseSigma: -1})
	p := Phase{
		Name: "bw-bound", Instructions: 1e10, IPSPeak: 4e10,
		SerialFrac: 0.02, MPIMax: 0.03, MPIMin: 0.002,
		WaysHalf: 3, MemStallCost: 100,
	}
	tight := alloc{cores: 8, ways: 2, bw: 1}
	ipsTight := s.ipsModel(p, tight)
	moreWays := s.ipsModel(p, alloc{cores: 8, ways: 8, bw: 1})
	moreBW := s.ipsModel(p, alloc{cores: 8, ways: 2, bw: 6})
	both := s.ipsModel(p, alloc{cores: 8, ways: 8, bw: 6})
	if moreWays <= ipsTight {
		t.Errorf("extra ways did not relieve bandwidth bound: %g vs %g", moreWays, ipsTight)
	}
	if moreBW <= ipsTight {
		t.Errorf("extra bandwidth did not help: %g vs %g", moreBW, ipsTight)
	}
	gainBoth := both - ipsTight
	gainSum := (moreWays - ipsTight) + (moreBW - ipsTight)
	if gainBoth <= 0.9*math.Max(moreWays-ipsTight, moreBW-ipsTight) {
		t.Errorf("joint gain %g not complementary (individual gains %g)", gainBoth, gainSum)
	}
}

func TestExactIsolatedIsUpperBound(t *testing.T) {
	s := newTestSim(t, 3, Options{NoiseSigma: -1})
	iso := s.ExactIsolated()
	ips, err := s.ExactIPS(s.Space().EqualSplit())
	if err != nil {
		t.Fatal(err)
	}
	for j := range ips {
		if ips[j] > iso[j]+1e-6 {
			t.Errorf("job %d partitioned IPS %g exceeds isolated %g", j, ips[j], iso[j])
		}
		if ips[j] <= 0 {
			t.Errorf("job %d has non-positive IPS", j)
		}
	}
}

func TestExactIPSRejectsInvalidConfig(t *testing.T) {
	s := newTestSim(t, 2, Options{})
	bad := s.Space().NewConfig() // all zeros
	if _, err := s.ExactIPS(bad); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestApplyAndCurrent(t *testing.T) {
	s := newTestSim(t, 2, Options{})
	eq := s.Space().EqualSplit()
	if !s.Current().Equal(eq) {
		t.Error("initial config is not the equal split")
	}
	if err := s.Apply(eq); err != nil {
		t.Fatal(err)
	}
	if s.Applies() != 0 {
		t.Error("no-op Apply counted as a reconfiguration")
	}
	moved, ok := s.Space().Move(eq, 0, 0, 1)
	if !ok {
		t.Fatal("move failed")
	}
	if err := s.Apply(moved); err != nil {
		t.Fatal(err)
	}
	if s.Applies() != 1 {
		t.Errorf("Applies = %d, want 1", s.Applies())
	}
	if !s.Current().Equal(moved) {
		t.Error("Apply did not install the config")
	}
	// Current returns a copy.
	c := s.Current()
	c.Alloc[0][0] = 99
	if s.Current().Alloc[0][0] == 99 {
		t.Error("Current aliases internal state")
	}
	if err := s.Apply(s.Space().NewConfig()); err == nil {
		t.Error("invalid config accepted by Apply")
	}
}

func TestStepAdvancesTimeAndWork(t *testing.T) {
	s := newTestSim(t, 2, Options{NoiseSigma: -1})
	sample := s.Step()
	if sample.Tick != 1 || math.Abs(sample.Time-TickSeconds) > 1e-12 {
		t.Errorf("first sample: tick=%d time=%g", sample.Tick, sample.Time)
	}
	if s.ticks != 1 || math.Abs(s.Now()-TickSeconds) > 1e-12 {
		t.Errorf("sim clock: ticks=%d now=%g", s.ticks, s.Now())
	}
	for j, ips := range sample.IPS {
		if ips <= 0 {
			t.Errorf("job %d observed IPS %g", j, ips)
		}
	}
}

func TestNoiseFreeStepMatchesExactModel(t *testing.T) {
	s := newTestSim(t, 2, Options{NoiseSigma: -1})
	want, err := s.ExactIPS(s.Current())
	if err != nil {
		t.Fatal(err)
	}
	got := s.Step()
	for j := range want {
		// No phase boundary in the first 100 ms, so the tick average
		// equals the instantaneous model.
		if math.Abs(got.IPS[j]-want[j])/want[j] > 1e-9 {
			t.Errorf("job %d step IPS %g != model %g", j, got.IPS[j], want[j])
		}
	}
}

func TestPhaseTransitions(t *testing.T) {
	// A tiny phase must complete mid-tick and roll into the next one.
	p := &Profile{
		Name: "tiny", Suite: "test",
		Phases: []Phase{
			{Name: "first", Instructions: 1e8, IPSPeak: 2e10, SerialFrac: 0,
				MPIMax: 0.001, MPIMin: 0.001, WaysHalf: 1, MemStallCost: 0},
			{Name: "second", Instructions: 1e12, IPSPeak: 1e10, SerialFrac: 0,
				MPIMax: 0.001, MPIMin: 0.001, WaysHalf: 1, MemStallCost: 0},
		},
	}
	s, err := New(DefaultMachine(), []*Profile{p, testProfile("other")}, Options{NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	if phaseName(s, 0) != "first" {
		t.Fatalf("initial phase %q", phaseName(s, 0))
	}
	sample := s.Step()
	if !sample.PhaseChanged[0] {
		t.Error("phase change not flagged")
	}
	if phaseName(s, 0) != "second" {
		t.Errorf("phase after step = %q, want second", phaseName(s, 0))
	}
	if sample.PhaseChanged[1] {
		t.Error("other job flagged a phase change")
	}
}

func TestPhaseLoopsAround(t *testing.T) {
	p := &Profile{
		Name: "looper", Suite: "test",
		Phases: []Phase{
			{Name: "only", Instructions: 5e8, IPSPeak: 2e10, SerialFrac: 0,
				MPIMax: 0.001, MPIMin: 0.001, WaysHalf: 1, MemStallCost: 0},
		},
	}
	s, err := New(DefaultMachine(), []*Profile{p}, Options{NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Step()
		if phaseName(s, 0) != "only" {
			t.Fatal("single-phase profile left its phase")
		}
	}
}

func TestFixedWorkSlowdown(t *testing.T) {
	// Under a starved allocation the same phase takes longer: after
	// equal ticks, the starved sim must have completed fewer phases.
	mk := func() *Simulator {
		s, err := New(DefaultMachine(), []*Profile{testProfile("a"), testProfile("b")}, Options{NoiseSigma: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rich := mk()
	poor := mk()
	// Rich: job 0 gets almost everything; poor: job 0 gets minimum.
	space := rich.Space()
	richCfg := space.NewConfig()
	poorCfg := space.NewConfig()
	for r, res := range space.Resources {
		richCfg.Alloc[r][0] = res.Units - 1
		richCfg.Alloc[r][1] = 1
		poorCfg.Alloc[r][0] = 1
		poorCfg.Alloc[r][1] = res.Units - 1
	}
	if err := rich.Apply(richCfg); err != nil {
		t.Fatal(err)
	}
	if err := poor.Apply(poorCfg); err != nil {
		t.Fatal(err)
	}
	richChanges, poorChanges := 0, 0
	for i := 0; i < 600; i++ {
		if rich.Step().PhaseChanged[0] {
			richChanges++
		}
		if poor.Step().PhaseChanged[0] {
			poorChanges++
		}
	}
	if richChanges <= poorChanges {
		t.Errorf("fixed-work violated: rich job crossed %d phases, starved crossed %d",
			richChanges, poorChanges)
	}
}

func TestNoiseStatistics(t *testing.T) {
	s := newTestSim(t, 1, Options{Seed: 3, NoiseSigma: 0.05})
	exact := s.ExactIsolated()[0]
	sum, sumSq, n := 0.0, 0.0, 0
	for i := 0; i < 2000; i++ {
		v := s.MeasureIsolated()[0]
		sum += v
		sumSq += v * v
		n++
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-exact)/exact > 0.01 {
		t.Errorf("noisy mean %g deviates from exact %g", mean, exact)
	}
	rel := std / exact
	if rel < 0.035 || rel > 0.065 {
		t.Errorf("noise sigma = %g, want ~0.05", rel)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		s := newTestSim(t, 3, Options{Seed: 77, NoiseSigma: 0.02})
		var out []float64
		for i := 0; i < 20; i++ {
			out = append(out, s.Step().IPS...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different trajectories")
		}
	}
}

func TestPowerPartitioning(t *testing.T) {
	spec := DefaultMachine()
	spec.PowerUnits = 8
	p := testProfile("p")
	s, err := New(spec, []*Profile{p, testProfile("q")}, Options{NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	space := s.Space()
	if len(space.Resources) != 4 {
		t.Fatalf("expected 4 resources with power, got %d", len(space.Resources))
	}
	// Starving a job of power while it holds many cores must slow it.
	rich := space.NewConfig()
	for r, res := range space.Resources {
		rich.Alloc[r][0] = res.Units - 1
		rich.Alloc[r][1] = 1
	}
	poorPower := rich.Clone()
	pIdx := resourceIndex(space, resource.Power)
	poorPower.Alloc[pIdx][0] = 1
	poorPower.Alloc[pIdx][1] = spec.PowerUnits - 1
	ipsRich, err := s.ExactIPS(rich)
	if err != nil {
		t.Fatal(err)
	}
	ipsPoor, err := s.ExactIPS(poorPower)
	if err != nil {
		t.Fatal(err)
	}
	if ipsPoor[0] >= ipsRich[0] {
		t.Errorf("power starvation did not slow job: %g vs %g", ipsPoor[0], ipsRich[0])
	}
}

func TestJobNames(t *testing.T) {
	s := newTestSim(t, 2, Options{})
	if s.NumJobs() != 2 || s.JobName(0) != "j0" || s.JobName(1) != "j1" {
		t.Error("job bookkeeping wrong")
	}
	if s.spec.Cores != 10 {
		t.Error("Spec not preserved")
	}
}

func TestReplaceJob(t *testing.T) {
	s := newTestSim(t, 2, Options{NoiseSigma: -1})
	// Run a while so job 0 is mid-phase.
	for i := 0; i < 50; i++ {
		s.Step()
	}
	repl := &Profile{
		Name: "replacement", Suite: "test",
		Phases: []Phase{
			{Name: "only", Instructions: 1e10, IPSPeak: 1e10, SerialFrac: 0.5,
				MPIMax: 0.001, MPIMin: 0.001, WaysHalf: 1, MemStallCost: 10},
		},
	}
	if err := s.ReplaceJob(0, repl); err != nil {
		t.Fatal(err)
	}
	if s.JobName(0) != "replacement" || phaseName(s, 0) != "only" {
		t.Errorf("job 0 after replace: %s/%s", s.JobName(0), phaseName(s, 0))
	}
	// The other job is untouched and stepping still works.
	if s.JobName(1) != "j1" {
		t.Error("job 1 was disturbed")
	}
	sample := s.Step()
	if sample.IPS[0] <= 0 || sample.IPS[1] <= 0 {
		t.Error("replaced mix does not run")
	}
	// Isolated baselines reflect the new job.
	iso := s.ExactIsolated()
	want := 1e10 / (1 + 10*0.001)
	if math.Abs(iso[0]-want)/want > 1e-9 {
		t.Errorf("new job isolated IPS = %g, want %g", iso[0], want)
	}
}

// TestExactJobIPSMatchesExactIPS: the per-job and buffered forms are
// ExactIPS entry by entry, to the bit, with and without a power row; the
// buffered form writes nothing for an invalid configuration.
func TestExactJobIPSMatchesExactIPS(t *testing.T) {
	for _, powerUnits := range []int{0, 8} {
		m := DefaultMachine()
		m.PowerUnits = powerUnits
		s, err := New(m, []*Profile{testProfile("j0"), testProfile("j1"), testProfile("j2")}, Options{NoiseSigma: -1})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(7)
		out := make([]float64, s.NumJobs())
		for i := 0; i < 200; i++ {
			c := s.Space().Random(rng)
			want, err := s.ExactIPS(c)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ExactIPSInto(out, c); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if got := s.ExactJobIPS(c, j); math.Float64bits(got) != math.Float64bits(want[j]) || math.Float64bits(out[j]) != math.Float64bits(want[j]) {
					t.Fatalf("power %d config %v job %d: ExactJobIPS %v, ExactIPSInto %v, ExactIPS %v", powerUnits, c.Alloc, j, got, out[j], want[j])
				}
			}
			s.Step()
		}
		out[0] = -1
		if err := s.ExactIPSInto(out, s.Space().NewConfig()); err == nil || out[0] != -1 {
			t.Errorf("power %d: invalid config accepted or written (%v, %v)", powerUnits, err, out[0])
		}
	}
}

// TestAppendPhaseKey: the key moves with a phase change and with a
// replaced job whose phase has the same name, and is stable otherwise.
func TestAppendPhaseKey(t *testing.T) {
	s := newTestSim(t, 2, Options{NoiseSigma: -1})
	key := func() string { return string(s.AppendPhaseKey(nil)) }
	k0 := key()
	if k0 != key() {
		t.Fatal("key unstable")
	}
	for phaseName(s, 0) == "a" {
		s.Step()
	}
	k1 := key()
	if k1 == k0 {
		t.Errorf("phase change kept key %q", k1)
	}
	if err := s.ReplaceJob(0, testProfile("twin")); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceJob(1, testProfile("j1-twin")); err != nil {
		t.Fatal(err)
	}
	// Both slots now run phase "a" again, of other profiles.
	if k2 := key(); k2 == k0 || k2 == k1 {
		t.Errorf("replacing both jobs kept a key: %q", k2)
	}
}

func TestReplaceJobValidation(t *testing.T) {
	s := newTestSim(t, 2, Options{})
	if err := s.ReplaceJob(5, testProfile("x")); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := s.ReplaceJob(-1, testProfile("x")); err == nil {
		t.Error("negative index accepted")
	}
	bad := testProfile("bad")
	bad.Phases[0].IPSPeak = -1
	if err := s.ReplaceJob(0, bad); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestModelMonotonicityProperty(t *testing.T) {
	// Property: for random phases and random allocations, growing any
	// one resource never decreases the modeled IPS.
	s := newTestSim(t, 2, Options{NoiseSigma: -1})
	rng := statsRNG(31)
	for trial := 0; trial < 2000; trial++ {
		p := Phase{
			Name:         "q",
			Instructions: 1e9,
			IPSPeak:      1e9 + rng.Float64()*5e10,
			SerialFrac:   rng.Float64() * 0.6,
			MPIMin:       rng.Float64() * 0.02,
			WaysHalf:     0.5 + rng.Float64()*5,
			MemStallCost: rng.Float64() * 300,
		}
		p.MPIMax = p.MPIMin + rng.Float64()*0.05
		a := alloc{
			cores: 1 + rng.Intn(9),
			ways:  1 + rng.Intn(10),
			bw:    1 + rng.Intn(9),
		}
		base := s.ipsModel(p, a)
		grown := []alloc{
			{cores: a.cores + 1, ways: a.ways, bw: a.bw},
			{cores: a.cores, ways: a.ways + 1, bw: a.bw},
			{cores: a.cores, ways: a.ways, bw: a.bw + 1},
		}
		for i, g := range grown {
			if got := s.ipsModel(p, g); got < base-1e-6 {
				t.Fatalf("trial %d: growing resource %d decreased IPS %g -> %g (phase %+v alloc %+v)",
					trial, i, base, got, p, a)
			}
		}
	}
}

// statsRNG avoids importing stats into this white-box test file's
// existing import set indirectly.
func statsRNG(seed uint64) *rngShim { return &rngShim{state: seed} }

type rngShim struct{ state uint64 }

func (r *rngShim) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *rngShim) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rngShim) Intn(n int) int   { return int(r.next() % uint64(n)) }

func TestAddJob(t *testing.T) {
	s := newTestSim(t, 2, Options{NoiseSigma: -1})
	for i := 0; i < 20; i++ {
		s.Step()
	}
	appliesBefore := s.Applies()
	spaceBefore := s.Space()
	if err := s.AddJob(testProfile("j2")); err != nil {
		t.Fatal(err)
	}
	if s.NumJobs() != 3 || s.JobName(2) != "j2" {
		t.Fatalf("job set after AddJob: %d jobs, last %q", s.NumJobs(), s.JobName(s.NumJobs()-1))
	}
	if s.Space() == spaceBefore || s.Space().Jobs != 3 {
		t.Fatal("space was not re-dimensioned")
	}
	// Churn counts as a reconfiguration (hardware rewrites every COS)
	// and resets the partition to the new equal split.
	if s.Applies() != appliesBefore+1 {
		t.Errorf("applies %d, want %d", s.Applies(), appliesBefore+1)
	}
	want := s.Space().EqualSplit()
	if got := s.Current(); !got.Equal(want) {
		t.Errorf("current after AddJob = %v, want equal split %v", got, want)
	}
	sample := s.Step()
	if len(sample.IPS) != 3 || sample.IPS[2] <= 0 {
		t.Fatalf("new job does not run: %v", sample.IPS)
	}
	if got := s.ExactIsolated(); len(got) != 3 {
		t.Fatalf("isolated baselines not re-dimensioned: %d", len(got))
	}
}

func TestRemoveJob(t *testing.T) {
	s := newTestSim(t, 3, Options{NoiseSigma: -1})
	if err := s.RemoveJob(1); err != nil {
		t.Fatal(err)
	}
	// Jobs above the evicted slot shift down.
	if s.NumJobs() != 2 || s.JobName(0) != "j0" || s.JobName(1) != "j2" {
		t.Fatalf("job set after RemoveJob: %d jobs, %q/%q", s.NumJobs(), s.JobName(0), s.JobName(1))
	}
	if s.Space().Jobs != 2 {
		t.Fatal("space was not re-dimensioned")
	}
	sample := s.Step()
	if len(sample.IPS) != 2 {
		t.Fatalf("sample not re-dimensioned: %v", sample.IPS)
	}
}

func TestRemoveJobValidation(t *testing.T) {
	s := newTestSim(t, 2, Options{})
	if err := s.RemoveJob(2); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := s.RemoveJob(-1); err == nil {
		t.Error("negative index accepted")
	}
	if err := s.RemoveJob(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveJob(0); err == nil {
		t.Error("removing the last job must be refused")
	}
	if s.NumJobs() != 1 {
		t.Errorf("failed RemoveJob mutated state: %d jobs", s.NumJobs())
	}
}

func TestAddJobValidation(t *testing.T) {
	s := newTestSim(t, 2, Options{})
	bad := testProfile("bad")
	bad.Phases[0].IPSPeak = -1
	if err := s.AddJob(bad); err == nil {
		t.Error("invalid profile accepted")
	}
	if s.NumJobs() != 2 {
		t.Errorf("failed AddJob mutated state: %d jobs", s.NumJobs())
	}
	// Growing past the machine's units must fail without side effects:
	// DefaultMachine has 10 cores, so an 11th job has no valid split.
	for s.NumJobs() < 10 {
		if err := s.AddJob(testProfile("filler")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddJob(testProfile("one-too-many")); err == nil {
		t.Error("over-capacity AddJob accepted")
	}
	if s.NumJobs() != 10 || s.Space().Jobs != 10 {
		t.Errorf("failed AddJob mutated state: %d jobs, space %d", s.NumJobs(), s.Space().Jobs)
	}
}

// TestApplyRejectsStaleShapedConfig is the churn-safety regression: a
// configuration decided for the old job set must be rejected with a
// typed *resource.ConfigShapeError after AddJob/RemoveJob, not silently
// misallocated.
func TestApplyRejectsStaleShapedConfig(t *testing.T) {
	s := newTestSim(t, 2, Options{NoiseSigma: -1})
	stale := s.Space().EqualSplit()
	if err := s.Apply(stale); err != nil {
		t.Fatalf("fresh config rejected: %v", err)
	}
	if err := s.AddJob(testProfile("j2")); err != nil {
		t.Fatal(err)
	}
	err := s.Apply(stale)
	var shapeErr *resource.ConfigShapeError
	if !errors.As(err, &shapeErr) {
		t.Fatalf("stale config after AddJob: got %v, want *resource.ConfigShapeError", err)
	}
	if shapeErr.ConfigJobs != 2 || shapeErr.SpaceJobs != 3 {
		t.Errorf("shape error dims = %+v", shapeErr)
	}
	// The shrink direction too.
	stale3 := s.Space().EqualSplit()
	if err := s.RemoveJob(2); err != nil {
		t.Fatal(err)
	}
	if !errors.As(s.Apply(stale3), &shapeErr) {
		t.Fatalf("stale config after RemoveJob not rejected")
	}
	// A correctly re-shaped config is accepted.
	if err := s.Apply(s.Space().EqualSplit()); err != nil {
		t.Fatalf("fresh config after churn rejected: %v", err)
	}
}

// SampledHorizon promises a run of extrapolated ticks; every tick inside
// the promise must succeed, and invalidation events must zero it.
func TestSampledHorizonBoundsExtrapolation(t *testing.T) {
	s := newTestSim(t, 2, Options{Seed: 11})
	if h := s.SampledHorizon(); h != 0 {
		t.Fatalf("horizon = %d before any detailed step, want 0", h)
	}
	// Step until the extrapolation cache is valid with a positive
	// lookahead.
	h := 0
	for i := 0; i < 300 && h == 0; i++ {
		s.Step()
		h = s.SampledHorizon()
	}
	if h == 0 {
		t.Fatal("no positive horizon within 300 ticks")
	}
	// The promise is hard: all h sampled ticks succeed, no refusal.
	for i := 0; i < h; i++ {
		if _, ok := s.StepSampled(); !ok {
			t.Fatalf("StepSampled refused at tick %d of a %d-tick promise", i+1, h)
		}
	}
	// The horizon is consumed as it is walked: after the promised run at
	// most one tick of rounding slack may remain.
	if left := s.SampledHorizon(); left > 1 {
		t.Errorf("horizon = %d after consuming the full promise, want <= 1", left)
	}
	// Whatever the next tick is, Step must absorb it and re-establish a
	// fresh promise that is again fully honored.
	s.Step()
	for i, h2 := 0, s.SampledHorizon(); i < h2; i++ {
		if _, ok := s.StepSampled(); !ok {
			t.Fatalf("second promise: refused at tick %d of %d", i+1, h2)
		}
	}
	// A reconfiguration invalidates the cache, so the horizon drops to 0.
	s.Step()
	moved, ok := s.Space().Move(s.Current(), 0, 0, 1)
	if !ok {
		t.Fatal("move failed")
	}
	if err := s.Apply(moved); err != nil {
		t.Fatal(err)
	}
	if got := s.SampledHorizon(); got != 0 {
		t.Errorf("horizon = %d after Apply, want 0", got)
	}
	// Membership churn likewise.
	s.Step()
	if err := s.AddJob(testProfile("late")); err != nil {
		t.Fatal(err)
	}
	if got := s.SampledHorizon(); got != 0 {
		t.Errorf("horizon = %d after AddJob, want 0", got)
	}
}

// The SLO-boundary analog of the phase-edge refusal: a latency-critical
// job whose model IPS sits within the onset margin of its critical rate
// gets NO extrapolation promise — per-tick noise could flip the
// violation verdict, and a sampled or skipped tick would jump the
// control loop straight over the onset. This test fails if the fast
// paths ever extrapolate inside the band.
func TestSampledRefusesNearSLOBoundary(t *testing.T) {
	// A single long phase so the only horizon limiter under test is the
	// SLO boundary, not phase edges.
	lcBase := func(name string) *Profile {
		p := testProfile(name)
		p.Phases = p.Phases[:1]
		p.Phases[0].Instructions = 1e13
		return p
	}
	// Measure the equal-split exact IPS of job 0 in a noise-free twin.
	probe, err := New(DefaultMachine(), []*Profile{lcBase("lc0"), testProfile("j1")}, Options{NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := probe.ExactIPS(probe.Current())
	if err != nil {
		t.Fatal(err)
	}
	// A spec whose critical rate equals the observed rate: the job runs
	// dead on the boundary. Spec arithmetic: crit = SI*(λ + ln100/target).
	specAt := func(crit float64) *slo.Spec {
		const lambda, target = 100.0, 0.02
		return &slo.Spec{
			TargetP99:           target,
			ServiceInstructions: crit / (lambda + math.Log(100)/target),
			ArrivalRate:         lambda,
		}
	}
	onBoundary := lcBase("lc0")
	onBoundary.SLO = specAt(exact[0])

	ps := []*Profile{onBoundary, testProfile("j1")}
	s, err := New(DefaultMachine(), ps, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		s.Step()
		if h := s.SampledHorizon(); h != 0 {
			t.Fatalf("tick %d: SampledHorizon = %d with an LC job on its critical boundary, want 0", i+1, h)
		}
		if _, ok := s.StepSampled(); ok {
			t.Fatalf("tick %d: StepSampled extrapolated across the SLO boundary", i+1)
		}
		if s.SkipSampled(1) {
			t.Fatalf("tick %d: SkipSampled jumped the SLO boundary", i+1)
		}
	}

	// The same job with its critical rate far below the observed rate is
	// comfortably attaining: the fast paths work exactly as for batch.
	comfortable := lcBase("lc0")
	comfortable.SLO = specAt(exact[0] / 2)
	s2, err := New(DefaultMachine(), []*Profile{comfortable, testProfile("j1")}, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	h := 0
	for i := 0; i < 300 && h == 0; i++ {
		s2.Step()
		h = s2.SampledHorizon()
	}
	if h == 0 {
		t.Fatal("no extrapolation promise for a comfortably attaining LC job")
	}
}

// phaseName is the name of job j's current phase.
func phaseName(s *Simulator, j int) string {
	jb := s.jobs[j]
	return jb.profile.Phases[jb.phaseIdx].Name
}
