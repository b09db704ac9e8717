package oracle

import (
	"math"
	"testing"

	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// smallSim builds a 2-job simulator whose space (9·10·9 = 810 configs) is
// small enough for exhaustive search.
func smallSim(t *testing.T) *sim.Simulator {
	t.Helper()
	ps := workloads.ECP()
	s, err := sim.New(sim.DefaultMachine(), []*sim.Profile{ps[0], ps[3]}, sim.Options{Seed: 5, NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bigSim builds a 5-job simulator (3.3M configs) forcing hill-climb mode.
func bigSim(t *testing.T) *sim.Simulator {
	t.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.DefaultMachine(), mixes[0].Profiles, sim.Options{Seed: 5, NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGoalWeightsAndNames(t *testing.T) {
	cases := []struct {
		g      Goal
		wT, wF float64
		name   string
	}{
		{Balanced, 0.5, 0.5, "balanced-oracle"},
		{Throughput, 1, 0, "throughput-oracle"},
		{Fairness, 0, 1, "fairness-oracle"},
	}
	for _, c := range cases {
		wT, wF := c.g.Weights()
		if wT != c.wT || wF != c.wF || c.g.String() != c.name {
			t.Errorf("goal %v: (%g,%g,%s)", c.g, wT, wF, c.g.String())
		}
	}
}

func TestExhaustiveBeatsEqualSplit(t *testing.T) {
	s := smallSim(t)
	sr := NewSearcher(s, Options{Seed: 1, ThroughputMetric: metrics.SumIPS})
	if !sr.small {
		t.Fatal("810-config space not searched exhaustively")
	}
	eq := s.Space().EqualSplit()
	eqVal := sr.objective(eq, 1, 0)
	best, val := sr.Search(1, 0)
	if err := s.Space().Validate(best); err != nil {
		t.Fatalf("oracle produced invalid config: %v", err)
	}
	if val < eqVal {
		t.Errorf("oracle objective %g below equal split %g", val, eqVal)
	}
}

func TestExhaustiveIsGlobalOptimum(t *testing.T) {
	s := smallSim(t)
	sr := NewSearcher(s, Options{Seed: 1, ThroughputMetric: metrics.SumIPS})
	_, val := sr.Search(0.5, 0.5)
	// Verify no configuration scores higher (re-enumeration).
	worst := math.Inf(1)
	s.Space().Enumerate(func(c resource.Config) bool {
		v := sr.objective(c, 0.5, 0.5)
		if v > val+1e-12 {
			t.Fatalf("config %s beats the oracle: %g > %g", c.Key(), v, val)
		}
		if v < worst {
			worst = v
		}
		return true
	})
	if val <= worst {
		t.Error("oracle no better than the worst configuration")
	}
}

func TestHillClimbApproachesExhaustive(t *testing.T) {
	s := smallSim(t)
	exact := NewSearcher(s, Options{Seed: 1, ThroughputMetric: metrics.SumIPS})
	_, exactVal := exact.Search(0.5, 0.5)
	// Force hill-climb mode on the same space.
	climb := NewSearcher(s, Options{Seed: 1, ExactLimit: 1, ThroughputMetric: metrics.SumIPS})
	if climb.small {
		t.Fatal("ExactLimit=1 did not force hill-climb mode")
	}
	_, climbVal := climb.Search(0.5, 0.5)
	if climbVal < 0.98*exactVal {
		t.Errorf("hill climb %g too far from exhaustive optimum %g", climbVal, exactVal)
	}
}

func TestHillClimbOnLargeSpace(t *testing.T) {
	s := bigSim(t)
	sr := NewSearcher(s, Options{Seed: 1, ThroughputMetric: metrics.SumIPS})
	if sr.small {
		t.Fatal("3.3M-config space marked exhaustive")
	}
	eqVal := sr.objective(s.Space().EqualSplit(), 0.5, 0.5)
	best, val := sr.Search(0.5, 0.5)
	if err := s.Space().Validate(best); err != nil {
		t.Fatalf("invalid config: %v", err)
	}
	if val <= eqVal {
		t.Errorf("hill climb did not improve on the equal split: %g vs %g", val, eqVal)
	}
}

func TestThroughputVsFairnessConflict(t *testing.T) {
	// The structural premise of the paper (Fig. 2): the two single-goal
	// optima differ, and each underperforms at the other goal.
	s := bigSim(t)
	sr := NewSearcher(s, Options{Seed: 2, ThroughputMetric: metrics.SumIPS})
	tOpt, _ := sr.Search(1, 0)
	fOpt, _ := sr.Search(0, 1)
	if tOpt.Equal(fOpt) {
		t.Fatal("throughput and fairness optima identical; no conflict to study")
	}
	tT := sr.objective(tOpt, 1, 0)
	fT := sr.objective(fOpt, 1, 0)
	tF := sr.objective(tOpt, 0, 1)
	fF := sr.objective(fOpt, 0, 1)
	if fT >= tT {
		t.Errorf("fairness-optimal config has throughput %g >= throughput-optimal %g", fT, tT)
	}
	if tF >= fF {
		t.Errorf("throughput-optimal config has fairness %g >= fairness-optimal %g", tF, fF)
	}
}

func TestPolicyCachesPerPhase(t *testing.T) {
	s := smallSim(t)
	p := New(Balanced, s, Options{Seed: 3, ThroughputMetric: metrics.SumIPS})
	if p.Name() != "balanced-oracle" {
		t.Error("name wrong")
	}
	cur := s.Space().EqualSplit()
	first := p.Decide(policy.Observation{Tick: 1}, cur)
	// Same phase state: the cached config must be returned.
	second := p.Decide(policy.Observation{Tick: 2}, cur)
	if !first.Equal(second) {
		t.Error("oracle re-searched within an unchanged phase state")
	}
	if len(p.cache) != 1 {
		t.Errorf("cache has %d entries, want 1", len(p.cache))
	}
	// Advance across a phase boundary and confirm the oracle reacts.
	for i := 0; i < 400; i++ {
		s.Step()
	}
	third := p.Decide(policy.Observation{Tick: 3}, cur)
	if err := s.Space().Validate(third); err != nil {
		t.Fatalf("invalid config after phase change: %v", err)
	}
	if len(p.cache) < 2 {
		t.Error("phase change did not trigger a fresh search")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.ExactLimit != 20000 || o.Restarts != 4 || o.Probes != 256 {
		t.Errorf("defaults wrong: %+v", o)
	}
}

// TestPolicyCacheSeesReplacedJob: three profile pairs share a phase name
// ("serve", "query", "smooth"). After ReplaceJob swaps one for the other
// in slot 0, the oracle must search again rather than return the
// optimum it cached for the departed job, and its answer must be the
// one a searcher that lived through the same history finds. A cache hit
// builds no key string.
func TestPolicyCacheSeesReplacedJob(t *testing.T) {
	byName := func(n string) *sim.Profile {
		p, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, pair := range [][2]string{{"media-streaming", "memcached-lc"}, {"web-search", "search-lc"}, {"amg", "hypre"}} {
		before, after := byName(pair[0]), byName(pair[1])
		if before.Phases[0].Name != after.Phases[0].Name {
			t.Fatalf("%s and %s no longer share their first phase's name", pair[0], pair[1])
		}
		newSim := func() *sim.Simulator {
			s, err := sim.New(sim.DefaultMachine(), []*sim.Profile{before, byName("swaptions"), byName("canneal")}, sim.Options{Seed: 1, NoiseSigma: -1})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s, twin := newSim(), newSim()
		opt := Options{Seed: 1, ThroughputMetric: metrics.SumIPS}
		p, ref := New(Balanced, s, opt), NewSearcher(twin, opt)
		cur := s.Space().EqualSplit()
		stale := p.Decide(policy.Observation{Tick: 1}, cur)
		if allocs := testing.AllocsPerRun(10, func() { p.Decide(policy.Observation{Tick: 1}, cur) }); allocs != 0 {
			t.Errorf("%s: a cache hit allocates %v times", pair[0], allocs)
		}
		wT, wF := Balanced.Weights()
		if first, _ := ref.Search(wT, wF); !first.Equal(stale) {
			t.Fatalf("%s: the twin searcher found %v, the policy %v", pair[0], first.Alloc, stale.Alloc)
		}
		if err := s.ReplaceJob(0, after); err != nil {
			t.Fatal(err)
		}
		if err := twin.ReplaceJob(0, after); err != nil {
			t.Fatal(err)
		}
		got := p.Decide(policy.Observation{Tick: 2}, cur)
		want, _ := ref.Search(wT, wF)
		if len(p.cache) != 2 || !got.Equal(want) {
			t.Errorf("%s -> %s: %d cached states, decided %v, a fresh search finds %v (cached before the swap: %v)",
				pair[0], pair[1], len(p.cache), got.Alloc, want.Alloc, stale.Alloc)
		}
	}
}

// TestSearchAllocatesPerSearchOnly: a warmed Searcher's allocations do
// not grow with the number of evaluations — the same small count at 64
// and 512 probes, and on the exhaustive path.
func TestSearchAllocatesPerSearchOnly(t *testing.T) {
	allocs := func(s *sim.Simulator, opt Options) float64 {
		sr := NewSearcher(s, opt)
		sr.Search(0.5, 0.5)
		return testing.AllocsPerRun(5, func() { sr.Search(0.5, 0.5) })
	}
	few := allocs(bigSim(t), Options{Seed: 1, Probes: 64})
	many := allocs(bigSim(t), Options{Seed: 1, Probes: 512})
	exact := allocs(smallSim(t), Options{Seed: 1})
	t.Logf("allocations per Search: %v (64 probes), %v (512 probes), %v (exhaustive, 810 configurations)", few, many, exact)
	if few != many || few > 8 {
		t.Errorf("hill climb allocates %v times at 64 probes and %v at 512; want one small constant", few, many)
	}
	if exact > 12 {
		t.Errorf("exhaustive search allocates %v times", exact)
	}
}

func BenchmarkSearch(b *testing.B) {
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(sim.DefaultMachine(), mixes[0].Profiles, sim.Options{Seed: 5, NoiseSigma: -1})
	if err != nil {
		b.Fatal(err)
	}
	sr := NewSearcher(s, Options{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Search(0.5, 0.5)
	}
}
