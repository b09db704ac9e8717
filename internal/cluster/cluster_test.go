package cluster

import (
	"testing"

	"satori/internal/core"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/stats"
)

func testSpace(t *testing.T, jobs int) *resource.Space {
	t.Helper()
	s, err := resource.NewSpace(jobs,
		resource.Resource{Kind: resource.Cores, Units: 4 * jobs},
		resource.Resource{Kind: resource.LLCWays, Units: 3 * jobs},
		resource.Resource{Kind: resource.MemBW, Units: 2 * jobs},
	)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return s
}

// jobKind scripts a synthetic fingerprint for driveClassifier.
type jobKind int

const (
	flat jobKind = iota
	cacheBound
	bwBound
)

// syntheticSpeedups builds a per-job speedup vector whose correlation
// structure matches each job's scripted kind: cache-bound jobs speed up
// with their ways share, bw-bound with their bandwidth share, flat jobs
// ignore both.
func syntheticSpeedups(space *resource.Space, kinds []jobKind, cfg resource.Config) []float64 {
	iWays, iBW := -1, -1
	for i, r := range space.Resources {
		switch r.Kind {
		case resource.LLCWays:
			iWays = i
		case resource.MemBW:
			iBW = i
		}
	}
	out := make([]float64, space.Jobs)
	for j := range out {
		switch kinds[j] {
		case cacheBound:
			out[j] = 0.3 + 0.6*float64(cfg.Alloc[iWays][j])/float64(space.Resources[iWays].Units)
		case bwBound:
			out[j] = 0.3 + 0.6*float64(cfg.Alloc[iBW][j])/float64(space.Resources[iBW].Units)
		default:
			out[j] = 0.5
		}
	}
	return out
}

// driveClassifier feeds ticks of random configurations (for allocation
// variance) with kind-scripted speedups until the classifier migrates or
// the budget runs out; returns the number of committed migrations.
func driveClassifier(t *testing.T, c *Classifier, space *resource.Space, kinds []jobKind, ticks int) int {
	t.Helper()
	rng := stats.NewRNG(7)
	migrations := 0
	for i := 0; i < ticks; i++ {
		cfg := space.Random(rng)
		if c.Observe(syntheticSpeedups(space, kinds, cfg), cfg) {
			migrations++
		}
	}
	return migrations
}

func TestClassifierFingerprints(t *testing.T) {
	space := testSpace(t, 6)
	kinds := []jobKind{cacheBound, cacheBound, bwBound, bwBound, flat, flat}
	c := NewClassifier(space, ClassifierOptions{K: 3})
	driveClassifier(t, c, space, kinds, 300)
	want := []Class{CacheSensitive, CacheSensitive, Streaming, Streaming, Insensitive, Insensitive}
	for j, cl := range c.Classes() {
		if cl != want[j] {
			t.Errorf("job %d classified %v, want %v (ways slope %.3f)", j, cl, want[j], c.ways[j].slope())
		}
	}
	g := c.Grouping()
	if g.Clusters > 3 {
		t.Fatalf("grouping uses %d clusters, budget is 3", g.Clusters)
	}
	// Same-class jobs must share a cluster, cross-class jobs must not.
	for a := 0; a < space.Jobs; a++ {
		for b := a + 1; b < space.Jobs; b++ {
			same := g.JobToCluster[a] == g.JobToCluster[b]
			if (kinds[a] == kinds[b]) != same {
				t.Errorf("jobs %d(%v) and %d(%v): same cluster = %v", a, kinds[a], b, kinds[b], same)
			}
		}
	}
}

func TestClassifierDeterministic(t *testing.T) {
	space := testSpace(t, 6)
	kinds := []jobKind{cacheBound, cacheBound, bwBound, bwBound, flat, flat}
	run := func() (string, int) {
		c := NewClassifier(space, ClassifierOptions{K: 3})
		m := driveClassifier(t, c, space, kinds, 300)
		return c.Grouping().String(), m
	}
	g1, m1 := run()
	g2, m2 := run()
	if g1 != g2 || m1 != m2 {
		t.Fatalf("classifier not deterministic: (%s, %d) vs (%s, %d)", g1, m1, g2, m2)
	}
}

func TestClassifierSingletonNeverMigrates(t *testing.T) {
	space := testSpace(t, 4)
	kinds := []jobKind{cacheBound, bwBound, flat, cacheBound}
	c := NewClassifier(space, ClassifierOptions{K: 8})
	if !c.Grouping().IsSingleton() {
		t.Fatal("K ≥ jobs must pin the singleton grouping")
	}
	if m := driveClassifier(t, c, space, kinds, 200); m != 0 {
		t.Fatalf("singleton classifier migrated %d times", m)
	}
}

func TestClassifierHysteresis(t *testing.T) {
	space := testSpace(t, 6)
	kinds := []jobKind{cacheBound, cacheBound, bwBound, bwBound, flat, flat}
	// Hysteresis 3, reclassify every 10, min samples 10: the first
	// possible commit is the 3rd round (tick 30) — strictly later than
	// with hysteresis 1 under the same stream.
	opt := ClassifierOptions{K: 3, ReclassifyEvery: 10, MinSamples: 10, Hysteresis: 3}
	c := NewClassifier(space, opt)
	rng := stats.NewRNG(7)
	firstAt := func(c *Classifier, rng *stats.RNG) int {
		for i := 1; i <= 300; i++ {
			cfg := space.Random(rng)
			if c.Observe(syntheticSpeedups(space, kinds, cfg), cfg) {
				return i
			}
		}
		return -1
	}
	slow := firstAt(c, rng)
	opt.Hysteresis = 1
	fast := firstAt(NewClassifier(space, opt), stats.NewRNG(7))
	if fast < 0 || slow < 0 {
		t.Fatalf("no migration observed: fast=%d slow=%d", fast, slow)
	}
	if slow <= fast {
		t.Fatalf("hysteresis 3 migrated at tick %d, not later than hysteresis 1 at %d", slow, fast)
	}
	if slow-fast < 20 {
		t.Fatalf("hysteresis 3 should lag by ≥ 2 rounds (20 ticks), got %d", slow-fast)
	}
}

func engineFactory(seed uint64) func(space *resource.Space) (policy.Policy, error) {
	return func(space *resource.Space) (policy.Policy, error) {
		return core.New(space, core.Options{Seed: seed})
	}
}

// TestPartitionerSingletonDrawIdentical pins the inertness contract:
// with K ≥ jobs the partitioner's decisions are bit-identical to running
// the inner engine directly, tick for tick.
func TestPartitionerSingletonDrawIdentical(t *testing.T) {
	space := testSpace(t, 4)
	plain, err := core.New(space, core.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	part, err := New(space, Options{K: 8, Inner: engineFactory(42)})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []jobKind{cacheBound, bwBound, flat, cacheBound}
	cfgA, cfgB := space.EqualSplit(), space.EqualSplit()
	for tick := 1; tick <= 120; tick++ {
		mk := func(cfg resource.Config) policy.Observation {
			spd := syntheticSpeedups(space, kinds, cfg)
			iso := make([]float64, space.Jobs)
			ips := make([]float64, space.Jobs)
			for j := range iso {
				iso[j] = 1e9
				ips[j] = spd[j] * iso[j]
			}
			return policy.Observation{Tick: tick, Time: float64(tick) * 0.1, IPS: ips, Isolated: iso, Speedups: spd}
		}
		cfgA = plain.Decide(mk(cfgA), cfgA)
		cfgB = part.Decide(mk(cfgB), cfgB)
		if !cfgA.Equal(cfgB) {
			t.Fatalf("tick %d: partitioner diverged from plain engine:\n%v\nvs\n%v", tick, cfgB, cfgA)
		}
	}
	if part.Regroups() != 0 {
		t.Fatalf("singleton partitioner regrouped %d times", part.Regroups())
	}
}

// TestPartitionerClustered runs jobs ≫ K and checks that every decision
// is a valid job-space configuration, that a migration eventually
// commits, and that post-migration decisions stay valid (the rebuild
// worked).
func TestPartitionerClustered(t *testing.T) {
	space := testSpace(t, 9)
	part, err := New(space, Options{K: 3, Inner: engineFactory(42)})
	if err != nil {
		t.Fatal(err)
	}
	if part.Grouping().Clusters != 3 {
		t.Fatalf("bootstrap grouping has %d clusters, want 3", part.Grouping().Clusters)
	}
	kinds := []jobKind{cacheBound, cacheBound, cacheBound, bwBound, bwBound, bwBound, flat, flat, flat}
	cfg := space.EqualSplit()
	for tick := 1; tick <= 300; tick++ {
		spd := syntheticSpeedups(space, kinds, cfg)
		iso := make([]float64, space.Jobs)
		ips := make([]float64, space.Jobs)
		for j := range iso {
			iso[j] = 1e9
			ips[j] = spd[j] * iso[j]
		}
		obs := policy.Observation{Tick: tick, Time: float64(tick) * 0.1, IPS: ips, Isolated: iso, Speedups: spd}
		cfg = part.Decide(obs, cfg)
		if err := space.Validate(cfg); err != nil {
			t.Fatalf("tick %d: invalid job config after Decide: %v", tick, err)
		}
	}
	if part.Regroups() == 0 {
		t.Fatal("expected at least one membership migration over 300 ticks")
	}
	// Post-migration the grouping reflects the scripted classes: the
	// three cache-bound jobs share, the three bw-bound share, etc.
	g := part.Grouping()
	for a := 0; a < space.Jobs; a++ {
		for b := a + 1; b < space.Jobs; b++ {
			same := g.JobToCluster[a] == g.JobToCluster[b]
			if (kinds[a] == kinds[b]) != same {
				t.Errorf("jobs %d and %d: same cluster = %v, kinds %v vs %v", a, b, same, kinds[a], kinds[b])
			}
		}
	}
}

func TestLFOCAllocates(t *testing.T) {
	space := testSpace(t, 9)
	l, err := NewLFOC(space, LFOCOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []jobKind{cacheBound, cacheBound, cacheBound, bwBound, bwBound, bwBound, flat, flat, flat}
	cfg := space.EqualSplit()
	rng := stats.NewRNG(11)
	var lastMigration resource.Config
	for tick := 1; tick <= 300; tick++ {
		// LFOC holds its target between migrations, so variance for the
		// classifier comes from the scripted exploration here.
		probe := space.Random(rng)
		spd := syntheticSpeedups(space, kinds, probe)
		obs := policy.Observation{Tick: tick, Speedups: spd}
		cfg = l.Decide(obs, probe)
		if err := space.Validate(cfg); err != nil {
			t.Fatalf("tick %d: invalid LFOC config: %v", tick, err)
		}
		if l.Regroups() > 0 && lastMigration.Alloc == nil {
			lastMigration = cfg.Clone()
		}
	}
	if l.Regroups() == 0 {
		t.Fatal("LFOC never migrated off the bootstrap grouping")
	}
	// After classification, cache-sensitive jobs hold more ways than
	// streaming jobs, and streaming jobs more bandwidth than insensitive.
	iWays, iBW := 1, 2
	if cfg.Alloc[iWays][0] <= cfg.Alloc[iWays][3] {
		t.Errorf("cache-bound job ways %d not above bw-bound %d", cfg.Alloc[iWays][0], cfg.Alloc[iWays][3])
	}
	if cfg.Alloc[iBW][3] <= cfg.Alloc[iBW][6] {
		t.Errorf("bw-bound job bandwidth %d not above flat %d", cfg.Alloc[iBW][3], cfg.Alloc[iBW][6])
	}
	// Determinism: an identical run lands on the identical allocation.
	l2, _ := NewLFOC(space, LFOCOptions{K: 3})
	rng2 := stats.NewRNG(11)
	var cfg2 resource.Config
	for tick := 1; tick <= 300; tick++ {
		probe := space.Random(rng2)
		cfg2 = l2.Decide(policy.Observation{Tick: tick, Speedups: syntheticSpeedups(space, kinds, probe)}, probe)
	}
	if !cfg.Equal(cfg2) {
		t.Fatal("LFOC allocation not deterministic across identical runs")
	}
}

func TestApportion(t *testing.T) {
	totals := []int{0, 0, 0}
	apportion(totals, []float64{1, 1, 1}, 3, 7)
	if totals[0]+totals[1]+totals[2] != 7 {
		t.Fatalf("apportion lost units: %v", totals)
	}
	// Equal weights, 7 units: largest-remainder gives 3/2/2 (ties to the
	// lower index).
	if totals[0] != 3 || totals[1] != 2 || totals[2] != 2 {
		t.Fatalf("apportion = %v, want [3 2 2]", totals)
	}
	totals = []int{0, 0}
	apportion(totals, []float64{0, 0}, 0, 5)
	if totals[0] != 5 || totals[1] != 0 {
		t.Fatalf("degenerate apportion = %v, want [5 0]", totals)
	}
}

// With K = 1 every job shares one cluster and the cluster space holds one
// configuration: the inner engine sees that from the space it is built on —
// not from a job count, of which there are six here — and runs no search,
// and the partitioner expands the same partition every tick.
func TestPartitionerOneClusterHasNothingToSearch(t *testing.T) {
	space := testSpace(t, 6)
	part, err := New(space, Options{K: 1, Inner: engineFactory(42)})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []jobKind{cacheBound, bwBound, flat, cacheBound, bwBound, flat}
	cfg := space.EqualSplit()
	var first resource.Config
	for tick := 1; tick <= 100; tick++ {
		spd := syntheticSpeedups(space, kinds, cfg)
		iso := make([]float64, space.Jobs)
		ips := make([]float64, space.Jobs)
		for j := range iso {
			iso[j] = 1e9
			ips[j] = spd[j] * iso[j] * (1 + 0.1*float64(tick%7))
		}
		obs := policy.Observation{Tick: tick, Time: float64(tick) * 0.1, IPS: ips, Isolated: iso, Speedups: spd,
			Throughput: 0.5 + 0.05*float64(tick%7), Fairness: 0.9 - 0.05*float64(tick%5)}
		cfg = part.Decide(obs, cfg).Clone()
		if err := space.Validate(cfg); err != nil {
			t.Fatalf("tick %d: invalid job config after Decide: %v", tick, err)
		}
		if tick == 1 {
			first = cfg
		} else if !cfg.Equal(first) {
			t.Fatalf("tick %d: decided %s, tick 1 decided %s", tick, space.String(cfg), space.String(first))
		}
	}
	eng := part.Inner().(*core.Engine)
	if st := eng.GPStats(); st.Refits+st.Extends+st.TargetSolves != 0 || eng.Records().Len() != 1 {
		t.Errorf("one-cluster inner engine searched: model stats %+v, %d records", st, eng.Records().Len())
	}
	if part.Regroups() != 0 {
		t.Errorf("one cluster regrouped %d times", part.Regroups())
	}
}
