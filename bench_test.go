// Benchmarks: one per reproduced paper figure/table (running the figure's
// driver at reduced scale — the full-scale numbers are produced by
// cmd/experiments and recorded in EXPERIMENTS.md), plus microbenchmarks of
// the engine's hot paths (GP refit, acquisition maximization, one full
// Decide, oracle search, simulator step).
package satori_test

import (
	"testing"

	"satori"
	"satori/internal/core"
	"satori/internal/gp"
	"satori/internal/harness"
	"satori/internal/metrics"
	"satori/internal/policies/oracle"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// benchExperiment runs one figure driver per iteration at smoke scale.
func benchExperiment(b *testing.B, id string, opt harness.ExpOptions) {
	b.Helper()
	e, ok := harness.FindExperiment(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// smoke is the per-iteration scale for figure benchmarks.
var smoke = harness.ExpOptions{Ticks: 60, Seed: 9, MixLimit: 1}

func BenchmarkFig01(b *testing.B) { benchExperiment(b, "fig1", smoke) }
func BenchmarkFig02(b *testing.B) { benchExperiment(b, "fig2", smoke) }
func BenchmarkFig03(b *testing.B) { benchExperiment(b, "fig3", smoke) }
func BenchmarkFig07(b *testing.B) { benchExperiment(b, "fig7", smoke) }
func BenchmarkFig08(b *testing.B) { benchExperiment(b, "fig8", smoke) }
func BenchmarkFig09(b *testing.B) { benchExperiment(b, "fig9", smoke) }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10", smoke) }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11", smoke) }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12", smoke) }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13", smoke) }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14", smoke) }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15", smoke) }
func BenchmarkFig16(b *testing.B) { benchExperiment(b, "fig16", smoke) }
func BenchmarkFig17(b *testing.B) { benchExperiment(b, "fig17", smoke) }
func BenchmarkFig18(b *testing.B) { benchExperiment(b, "fig18", smoke) }
func BenchmarkFig19(b *testing.B) { benchExperiment(b, "fig19", smoke) }
func BenchmarkScalability(b *testing.B) {
	benchExperiment(b, "scalability", harness.ExpOptions{Ticks: 60, Seed: 9, MixLimit: 1})
}
func BenchmarkAblationResources(b *testing.B) { benchExperiment(b, "ablation-resources", smoke) }
func BenchmarkAblationInit(b *testing.B)      { benchExperiment(b, "ablation-init", smoke) }
func BenchmarkAblationWindow(b *testing.B)    { benchExperiment(b, "ablation-window", smoke) }
func BenchmarkAblationBounds(b *testing.B)    { benchExperiment(b, "ablation-bounds", smoke) }
func BenchmarkSpaceSize(b *testing.B)         { benchExperiment(b, "space", smoke) }

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

// benchEngineOverhead measures one full SATORI BO iteration — the
// quantity the paper reports as 1.2 ms within the 100 ms interval
// (Sec. V overhead analysis; the "overhead" experiment prints the same
// measurement with more context). Run time-based (-benchtime 2s, not Nx):
// the first few hundred iterations are seeding/warm-up ticks that are far
// cheaper than steady-state Decide calls.
func benchEngineOverhead(b *testing.B, opt core.Options) {
	b.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.New(sim.DefaultMachine(), mixes[0].Profiles, sim.Options{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	platform, err := rdt.NewSimPlatform(s)
	if err != nil {
		b.Fatal(err)
	}
	opt.Seed = 9
	eng, err := core.New(platform.Space(), opt)
	if err != nil {
		b.Fatal(err)
	}
	iso, err := platform.MeasureIsolated()
	if err != nil {
		b.Fatal(err)
	}
	current := platform.Current()
	met := harness.DefaultMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ips, err := platform.Sample()
		if err != nil {
			b.Fatal(err)
		}
		obs := policy.Observation{
			Tick: i + 1, IPS: ips, Isolated: iso,
			Speedups:   metrics.Speedups(ips, iso),
			Throughput: metrics.NormalizedThroughput(met.Throughput, ips, iso),
			Fairness:   metrics.NormalizedFairness(met.Fairness, ips, iso),
		}
		b.StartTimer()
		next := eng.Decide(obs, current)
		b.StopTimer()
		if err := platform.Apply(next); err == nil {
			current = platform.Current()
		}
		b.StartTimer()
	}
}

// BenchmarkEngineOverhead is the headline per-tick cost under default
// options.
func BenchmarkEngineOverhead(b *testing.B) { benchEngineOverhead(b, core.Options{}) }

// BenchmarkEngineOverheadIncremental pins the paper's Window=64; its
// allocs/op is a CI gate, and EXPERIMENTS.md records the numbers.
func BenchmarkEngineOverheadIncremental(b *testing.B) {
	benchEngineOverhead(b, core.Options{Window: 64})
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

// BenchmarkSessionStep isolates the control loop's own steady-state
// cost: a warmed session past the first equalization boundary, under the
// hold-current Static policy so no engine work is measured — just
// sample → score → decide → apply through internal/control. This guards
// the loop's per-tick allocation budget (a handful of slices per step:
// the IPS sample, the speedup vector, and the status copies).
func BenchmarkSessionStep(b *testing.B) {
	jobs, err := satori.Suite(satori.SuitePARSEC)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := satori.NewSession(satori.SessionConfig{
		Workloads: jobs[:5],
		Seed:      9,
		Policy:    satori.NewStaticPolicy(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Run(150); err != nil { // warm past tick 101's refresh
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

// BenchmarkSessionStepLC is BenchmarkSessionStep with latency-critical
// jobs in the mix and goal switching armed: the extra steady-state cost
// is the SLO tracker's per-tick pass (latency quantiles, attainment,
// detector update) plus the per-job quantile slices in the status. The
// delta against SessionStep is the whole subsystem's scoring overhead —
// the batch-only path must stay at its prior allocation budget.
func BenchmarkSessionStepLC(b *testing.B) {
	batch, err := satori.Suite(satori.SuitePARSEC)
	if err != nil {
		b.Fatal(err)
	}
	lc, err := satori.Suite(satori.SuiteLC)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := satori.NewSession(satori.SessionConfig{
		Workloads:     append(lc[:2], batch[:3]...),
		Seed:          9,
		Policy:        satori.NewStaticPolicy(),
		SLOGoalSwitch: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Run(150); err != nil { // warm past tick 101's refresh
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
	machine := sim.MachineSpec{
		Cores: 48, LLCWays: 32, MemBWUnits: 24,
		MemBWBytesPerUnit: 7.68e9, LineBytes: 64, MinPowerScale: 0.55,
	}
	s, err := sim.New(machine, profiles, sim.Options{Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	platform, err := rdt.NewSimPlatform(s)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := factory(platform, 9)
	if err != nil {
		b.Fatal(err)
	}
	iso, err := platform.MeasureIsolated()
	if err != nil {
		b.Fatal(err)
	}
	current := platform.Current()
	met := harness.DefaultMetrics()
	observe := func(tick int) policy.Observation {
		ips, err := platform.Sample()
		if err != nil {
			b.Fatal(err)
		}
		return policy.Observation{
			Tick: tick, IPS: ips, Isolated: iso,
			Speedups:   metrics.Speedups(ips, iso),
			Throughput: metrics.NormalizedThroughput(met.Throughput, ips, iso),
			Fairness:   metrics.NormalizedFairness(met.Fairness, ips, iso),
		}
	}
	// Warm past engine seeding and classifier convergence.
	tick := 0
	for ; tick < 200; tick++ {
		next := pol.Decide(observe(tick+1), current)
		if err := platform.Apply(next); err == nil {
			current = platform.Current()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		obs := observe(tick + i + 1)
		b.StartTimer()
		next := pol.Decide(obs, current)
		b.StopTimer()
		if err := platform.Apply(next); err == nil {
			current = platform.Current()
		}
		b.StartTimer()
	}
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
