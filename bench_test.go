// Benchmarks: one sub-benchmark per row of the experiment table (at
// reduced scale — the full-scale numbers are produced by cmd/experiments
// and recorded in EXPERIMENTS.md), plus microbenchmarks of the engine's
// hot paths (GP refit, acquisition maximization, one full Decide, oracle
// search, simulator step). The allocation ceilings of the three loops CI
// used to gate through benchjson are tests here, next to the benchmarks
// that define those loops.
package satori_test

import (
	"runtime"
	"testing"

	"satori"
	"satori/internal/core"
	"satori/internal/gp"
	"satori/internal/harness"
	"satori/internal/metrics"
	"satori/internal/policies/oracle"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// BenchmarkExperiment runs every row of the experiment table at smoke
// scale, one sub-benchmark per row (-bench 'Experiment/fig7$').
func BenchmarkExperiment(b *testing.B) {
	smoke := harness.ExpOptions{Ticks: 60, Seed: 9, MixLimit: 1}
	for _, e := range harness.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(smoke); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSuite runs the Fig. 7-style suite (4 mixes × 2 policies + oracle
// references) under the given worker count; the serial/parallel pair
// quantifies the harness fan-out's wall-clock win.
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		b.Fatal(err)
	}
	random, err := harness.PolicyByName("random")
	if err != nil {
		b.Fatal(err)
	}
	spec := harness.SuiteSpec{
		Mixes: mixes[:4],
		Policies: []harness.NamedFactory{
			{Name: "satori", Factory: harness.SatoriFactory(core.Options{})},
			{Name: "random", Factory: random},
		},
		Base:    harness.DefaultSuiteBase(9, 60),
		Workers: workers,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunSuite(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteSerial vs BenchmarkSuiteParallel4 measure the identical
// workload with 1 and 4 workers (expected: >1.5x faster at 4 workers on
// a 4+-core machine, with byte-identical results — see
// TestRunSuiteParallelMatchesSerial).
func BenchmarkSuiteSerial(b *testing.B)    { benchSuite(b, 1) }
func BenchmarkSuiteParallel4(b *testing.B) { benchSuite(b, 4) }

// decideLoop drives one policy against a simulated platform the way the
// Decide benchmarks need it: observe builds the next tick's observation
// and apply commits the decision, so a caller can time — or count the
// allocations of — the Decide call between them and nothing else.
type decideLoop struct {
	platform *rdt.SimPlatform
	policy   policy.Policy
	iso      []float64
	current  resource.Config
}

func newDecideLoop(tb testing.TB, machine sim.MachineSpec, profiles []*sim.Profile, factory harness.PolicyFactory) *decideLoop {
	tb.Helper()
	s, err := sim.New(machine, profiles, sim.Options{Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	l := &decideLoop{}
	if l.platform, err = rdt.NewSimPlatform(s); err != nil {
		tb.Fatal(err)
	}
	if l.policy, err = factory(l.platform, 9); err != nil {
		tb.Fatal(err)
	}
	if l.iso, err = l.platform.MeasureIsolated(); err != nil {
		tb.Fatal(err)
	}
	l.current = l.platform.Current()
	return l
}

func (l *decideLoop) observe(tb testing.TB, tick int) policy.Observation {
	ips, err := l.platform.Sample()
	if err != nil {
		tb.Fatal(err)
	}
	met := harness.DefaultMetrics()
	return policy.Observation{
		Tick: tick, IPS: ips, Isolated: l.iso,
		Speedups:   metrics.Speedups(ips, l.iso),
		Throughput: metrics.NormalizedThroughput(met.Throughput, ips, l.iso),
		Fairness:   metrics.NormalizedFairness(met.Fairness, ips, l.iso),
	}
}

func (l *decideLoop) apply(next resource.Config) {
	if err := l.platform.Apply(next); err == nil {
		l.current = l.platform.Current()
	}
}

// bench times Decide alone, from tick first on.
func (l *decideLoop) bench(b *testing.B, first int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		obs := l.observe(b, first+i)
		b.StartTimer()
		next := l.policy.Decide(obs, l.current)
		b.StopTimer()
		l.apply(next)
		b.StartTimer()
	}
}

// engineLoop is one full SATORI BO iteration per tick on PARSEC mix 0 —
// the quantity the paper reports as 1.2 ms within the 100 ms interval
// (Sec. V overhead analysis; the "overhead" experiment prints the same
// measurement with more context). Benchmark it time-based (-benchtime 2s,
// not Nx): the first few hundred iterations are seeding/warm-up ticks
// that are far cheaper than steady-state Decide calls.
func engineLoop(tb testing.TB, opt core.Options) *decideLoop {
	tb.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		tb.Fatal(err)
	}
	return newDecideLoop(tb, sim.DefaultMachine(), mixes[0].Profiles, harness.SatoriFactory(opt))
}

// BenchmarkEngineOverhead is the headline per-tick cost under default
// options.
func BenchmarkEngineOverhead(b *testing.B) { engineLoop(b, core.Options{}).bench(b, 1) }

// BenchmarkEngineOverheadIncremental pins the paper's Window=64;
// EXPERIMENTS.md records the numbers.
func BenchmarkEngineOverheadIncremental(b *testing.B) {
	engineLoop(b, core.Options{Window: 64}).bench(b, 1)
}

// TestEngineDecideAllocationCeiling holds the Window=64 loop's Decide to
// 8 allocations per call, averaged from the first tick on as the
// benchmark averages them. The count brackets Decide alone, like the
// benchmark's timer, which testing.AllocsPerRun cannot do inside a loop
// whose other half allocates; it reads the same counter the same way.
func TestEngineDecideAllocationCeiling(t *testing.T) {
	l := engineLoop(t, core.Options{Window: 64})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ticks = 1500
	var before, after runtime.MemStats
	var mallocs uint64
	for tick := 1; tick <= ticks; tick++ {
		obs := l.observe(t, tick)
		runtime.ReadMemStats(&before)
		next := l.policy.Decide(obs, l.current)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		l.apply(next)
	}
	if per := mallocs / ticks; per > 8 {
		t.Errorf("Decide allocates %d/op over %d ticks, ceiling 8", per, ticks)
	}
}

// benchIncrementalModel builds a warm n-observation incremental GP. The
// targets sit under the 0.01 variance floor — matching the normalized
// objectives the engine feeds it — so UpdateTargets takes the α-only
// fast path rather than rebuilding.
func benchIncrementalModel(b *testing.B, n, dim int) (*gp.Incremental, [][]float64, []float64) {
	b.Helper()
	rng := stats.NewRNG(5)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = rng.Float64()
		}
		ys[i] = 0.5 + 0.05*rng.Float64()
	}
	m := gp.NewIncremental(gp.Options{})
	if err := m.Reset(xs, ys); err != nil {
		b.Fatal(err)
	}
	return m, xs, ys
}

// BenchmarkGPIncrementalUpdateTargets measures the α-only re-solve that
// replaces a full refit when only the goal weights (targets) change.
func BenchmarkGPIncrementalUpdateTargets(b *testing.B) {
	m, _, ys := benchIncrementalModel(b, 64, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ys[i%len(ys)] += 1e-9
		if err := m.UpdateTargets(ys); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPredictPool scores a candidate pool against the warm Window=64
// model through the matrix-level batch solve. The ns/cand metric is the
// per-candidate cost; the benchmark module's gp.predict_batch_us reads the
// same routine at the pool a workload really has.
func benchPredictPool(b *testing.B, pool int) {
	m, _, _ := benchIncrementalModel(b, 64, 15)
	rng := stats.NewRNG(6)
	pts := make([][]float64, pool)
	for i := range pts {
		pts[i] = make([]float64, 15)
		for d := range pts[i] {
			pts[i][d] = rng.Float64()
		}
	}
	mu := make([]float64, pool)
	sigma := make([]float64, pool)
	var scratch gp.PredictScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchInto(&scratch, mu, sigma, pts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pool), "ns/cand")
}

func BenchmarkPredictPoolBatch32(b *testing.B)  { benchPredictPool(b, 32) }
func BenchmarkPredictPoolBatch128(b *testing.B) { benchPredictPool(b, 128) }

// BenchmarkGPFit measures one proxy-model refit on a typical window.
func BenchmarkGPFit(b *testing.B) {
	rng := stats.NewRNG(3)
	const n, dim = 64, 15
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = rng.Float64()
		}
		ys[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.Fit(xs, ys, gp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorStep measures one 100 ms tick of the 5-job testbed.
func BenchmarkSimulatorStep(b *testing.B) {
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(sim.DefaultMachine(), mixes[0].Profiles, sim.Options{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkOracleSearch measures one Balanced-Oracle hill-climb on the
// 3.3M-configuration PARSEC space.
func BenchmarkOracleSearch(b *testing.B) {
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(sim.DefaultMachine(), mixes[0].Profiles, sim.Options{Seed: 9, NoiseSigma: -1})
	if err != nil {
		b.Fatal(err)
	}
	met := harness.DefaultMetrics()
	sr := oracle.NewSearcher(s, oracle.Options{Seed: 9, ThroughputMetric: met.Throughput, FairnessMetric: met.Fairness})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Search(0.5, 0.5)
	}
}

// staticSession is the loop BenchmarkSessionStep* run: a session warmed
// past the first equalization boundary under the hold-current Static
// policy, so no engine work is measured — just sample → score → decide →
// apply through internal/control. With lc, two latency-critical jobs
// join the mix and goal switching is armed.
func staticSession(tb testing.TB, lc bool) *satori.Session {
	tb.Helper()
	jobs, err := satori.Suite(satori.SuitePARSEC)
	if err != nil {
		tb.Fatal(err)
	}
	jobs = jobs[:5]
	if lc {
		services, err := satori.Suite(satori.SuiteLC)
		if err != nil {
			tb.Fatal(err)
		}
		jobs = append(services[:2], jobs[:3]...)
	}
	static, err := satori.NewPolicyByName("static", 9)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := satori.NewSession(satori.SessionConfig{
		Workloads:     jobs,
		Seed:          9,
		Policy:        static,
		SLOGoalSwitch: lc,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.Run(150); err != nil { // warm past tick 101's refresh
		tb.Fatal(err)
	}
	return sess
}

func benchSessionStep(b *testing.B, lc bool) {
	sess := staticSession(b, lc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionStep isolates the control loop's own steady-state
// cost and guards its per-tick allocation budget (a handful of slices
// per step: the IPS sample and the status copies).
func BenchmarkSessionStep(b *testing.B) { benchSessionStep(b, false) }

// BenchmarkSessionStepLC adds the SLO tracker's per-tick pass (latency
// quantiles, attainment, detector update) plus the per-job quantile
// slices in the status. The delta against SessionStep is the whole
// subsystem's scoring overhead — the batch-only path must stay at its
// prior allocation budget.
func BenchmarkSessionStepLC(b *testing.B) { benchSessionStep(b, true) }

// TestSessionStepAllocationCeilings: one steady-state loop step makes at
// most 3 allocations, 5 with latency-critical jobs in the mix.
func TestSessionStepAllocationCeilings(t *testing.T) {
	for _, c := range []struct {
		name    string
		lc      bool
		ceiling float64
	}{{"SessionStep", false, 3}, {"SessionStepLC", true, 5}} {
		sess := staticSession(t, c.lc)
		got := testing.AllocsPerRun(200, func() {
			if _, err := sess.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s allocates %.0f/op, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// benchClusterDecide measures one steady-state Decide over the 24-job
// jobs ≫ classes co-location (the "cluster" experiment's machine): the
// cost of choosing the next partition once the policy is warm. Per-job
// SATORI searches 24 coordinates per resource; clustered SATORI at K=8
// searches 8 over the reduced cluster space — the speedup is CI's
// ClusterDecidePerJob24/ClusterDecideK8 gate (core.decide_p50_us on
// node_wide vs node_clustered in the benchmark module). Sampling and Apply
// are excluded so the two variants are compared on exactly the search they
// run.
func benchClusterDecide(b *testing.B, factory harness.PolicyFactory) {
	b.Helper()
	base := workloads.PARSEC()
	profiles := make([]*sim.Profile, 24)
	for i := range profiles {
		profiles[i] = base[i%len(base)]
	}
	l := newDecideLoop(b, sim.MachineSpec{
		Cores: 48, LLCWays: 32, MemBWUnits: 24,
		MemBWBytesPerUnit: 7.68e9, LineBytes: 64, MinPowerScale: 0.55,
	}, profiles, factory)
	// Warm past engine seeding and classifier convergence.
	const warm = 200
	for tick := 1; tick <= warm; tick++ {
		l.apply(l.policy.Decide(l.observe(b, tick), l.current))
	}
	l.bench(b, warm+1)
}

func BenchmarkClusterDecidePerJob24(b *testing.B) {
	benchClusterDecide(b, harness.SatoriFactory(core.Options{}))
}

func BenchmarkClusterDecideK8(b *testing.B) {
	benchClusterDecide(b, harness.ClusteredSatoriFactory(8, core.Options{}))
}

// BenchmarkSessionTick measures one public-API session step end to end.
func BenchmarkSessionTick(b *testing.B) {
	jobs, err := satori.Suite(satori.SuitePARSEC)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := satori.NewSession(satori.SessionConfig{Workloads: jobs[:5], Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
