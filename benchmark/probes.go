package main

import (
	"fmt"
	"sort"
	"time"

	"satori/internal/bo"
	"satori/internal/core"
	"satori/internal/gp"
	"satori/internal/linalg"
	"satori/internal/metrics"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/slo"
	"satori/internal/stats"
)

// The probes time each lower layer's public functions on the shape a
// traced session ended with: J jobs, search dimension d, a model window of
// n recorded configurations, and a candidate pool of c vectors built the
// way the engine builds it. They say what one call costs; the span
// metrics say how much of a tick the layer above spends.

// timeCall returns the median wall time of one fn call in nanoseconds on
// the reference host (see meter.go). Calls are batched so that one clock
// pair covers at least ~200 µs, the yardstick is timed before every batch,
// and batches repeat until 25 ms have been measured; prepare, when not nil,
// runs untimed before every call (then each batch is a single call).
func timeCall(prepare, fn func()) float64 {
	run := func(k int) time.Duration {
		if prepare != nil {
			prepare()
		}
		t := time.Now()
		for i := 0; i < k; i++ {
			fn()
		}
		return time.Since(t)
	}
	first := run(1)
	k := 1
	if prepare == nil && first < 200*time.Microsecond {
		k = int(200*time.Microsecond/max(first, time.Nanosecond)) + 1
	}
	scratch := newYardScratch()
	var per, yards []float64
	var total time.Duration
	for len(per) < 7 || (total < 25*time.Millisecond && len(per) < 4000) {
		yards = append(yards, float64(yardstick(scratch)))
		d := run(k)
		total += d
		per = append(per, float64(d)/float64(k))
	}
	return median(per) * yardRefNs / median(yards)
}

// probeShape is the shape the probes replayed.
type probeShape struct{ jobs, dim, window, pool int }

// runProbes returns the probe metrics by name.
func runProbes(sr *shapeRun, seed uint64) (map[string]float64, probeShape, error) {
	out := map[string]float64{}
	eng, space := engineOf(sr.sess)
	if eng == nil {
		return nil, probeShape{}, fmt.Errorf("probes: session policy %q has no SATORI engine", sr.sess.Policy().Name())
	}
	window := eng.Records().Window(64)
	n := len(window)
	if n == 0 {
		return nil, probeShape{}, fmt.Errorf("probes: the engine recorded no configuration")
	}
	w := eng.LastWeights()
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i, rec := range window {
		xs[i], ys[i] = rec.Vector, rec.Objective(w)
	}

	// The candidate pool, as Engine.Decide fills it: 16 uniform random
	// configurations, 16 three-step random walks from the incumbent, and
	// the one-unit neighbourhoods of the three best recorded
	// configurations, each flattened to a vector. (The walks are drawn
	// once: the engine's walk helper is not public, and they are 16 of
	// the pool's entries.)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ys[order[a]] > ys[order[b]] })
	top := order[:min(3, n)]
	rng := stats.NewRNG(seed ^ 0x9E0BE)
	randoms := make([]resource.Config, 16)
	for i := range randoms {
		randoms[i] = space.NewConfig()
	}
	walks := make([]resource.Config, 16)
	for i := range walks {
		walks[i] = window[top[0]].Config.Clone()
		for s := 0; s < 3; s++ {
			space.MoveInPlace(walks[i], rng.Intn(len(space.Resources)), rng.Intn(space.Jobs), rng.Intn(space.Jobs))
		}
	}
	var pool []resource.Config
	var cands [][]float64
	fill := func() {
		pool = pool[:0]
		for _, c := range randoms {
			space.RandomInto(rng, c)
			pool = append(pool, c)
		}
		pool = append(pool, walks...)
		for _, t := range top {
			pool = append(pool, space.Neighbors(window[t].Config)...)
		}
		for len(cands) < len(pool) {
			cands = append(cands, nil)
		}
		for i, c := range pool {
			cands[i] = space.VectorInto(cands[i], c)
		}
	}
	out["resource.candidate_fill_us"] = timeCall(nil, fill) / 1e3
	c := len(pool)
	cands = cands[:c]
	shape := probeShape{jobs: space.Jobs, dim: space.Dim(), window: n, pool: c}

	// gp: the incremental model on the window.
	const noise = 1e-3 // core.Options' default observation noise
	model := gp.NewIncremental(gp.Options{Noise: noise})
	if err := model.Reset(xs, ys); err != nil {
		return nil, shape, fmt.Errorf("probes: gp reset on the session's window: %w", err)
	}
	var failed error
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	out["gp.reset_us"] = timeCall(nil, func() { keep(model.Reset(xs, ys)) }) / 1e3
	out["gp.update_targets_us"] = timeCall(nil, func() { keep(model.UpdateTargets(ys)) }) / 1e3
	grow := gp.NewIncremental(gp.Options{Noise: noise})
	out["gp.append_us"] = timeCall(
		func() {
			if n > 1 {
				keep(grow.Reset(xs[:n-1], ys[:n-1]))
			} else {
				grow = gp.NewIncremental(gp.Options{Noise: noise})
			}
		},
		func() { keep(grow.Append(xs[n-1], ys)) }) / 1e3
	var sink float64
	out["gp.predict_mean_window_us"] = timeCall(nil, func() {
		for _, x := range xs {
			sink += model.PredictMean(x)
		}
	}) / 1e3
	var scratch gp.PredictScratch
	mu, sigma := make([]float64, c), make([]float64, c)
	out["gp.predict_batch_us"] = timeCall(nil, func() { model.PredictBatchInto(&scratch, mu, sigma, cands) }) / 1e3
	// bo: the acquisition pass SuggestBatch runs over the scored pool (its
	// other half is the batched prediction above). Timed on its own: as a
	// difference of two ~200 µs calls a ~3 µs pass drowns in their noise.
	bestY, acq := ys[top[0]], bo.EI{}
	out["bo.suggest_batch_us"] = timeCall(nil, func() {
		for i := range mu {
			sink += acq.Score(mu[i], sigma[i], bestY)
		}
	}) / 1e3
	if _, _, err := bo.SuggestBatch(model, &scratch, acq, bestY, cands, mu, sigma); err != nil {
		keep(fmt.Errorf("probes: bo.SuggestBatch on the session's pool: %w", err))
	}

	// linalg: the window's kernel matrix and the pool's cross-covariance.
	kern := model.Kernel()
	kmat := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kmat.Set(i, j, kern.Eval(xs[i], xs[j]))
		}
		kmat.Set(i, i, kmat.At(i, i)+model.Jitter())
	}
	chol, err := linalg.NewCholesky(kmat)
	if err != nil {
		return nil, shape, fmt.Errorf("probes: cholesky of the window's kernel matrix: %w", err)
	}
	out["linalg.factorize_us"] = timeCall(nil, func() { keep(chol.Factorize(kmat)) }) / 1e3
	lead := linalg.NewMatrix(n-1, n-1)
	for i := 0; i < n-1; i++ {
		copy(lead.Data[i*(n-1):(i+1)*(n-1)], kmat.Data[i*n:i*n+n-1])
	}
	ext := &linalg.Cholesky{}
	out["linalg.extend_us"] = timeCall(
		func() { keep(ext.Factorize(lead)) },
		func() { keep(ext.Extend(kmat.Data[(n-1)*n:(n-1)*n+n-1], kmat.At(n-1, n-1))) }) / 1e3
	cross, solved := linalg.NewMatrix(n, c), linalg.NewMatrix(n, c)
	for i := 0; i < n; i++ {
		for j, x := range cands {
			cross.Set(i, j, kern.Eval(x, xs[i]))
		}
	}
	keep(chol.Factorize(kmat))
	out["linalg.solve_lower_matrix_us"] = timeCall(nil, func() { chol.SolveLowerMatrixInto(solved, cross) }) / 1e3

	// core: building an engine on the workload's space.
	out["core.new_us"] = timeCall(nil, func() {
		_, err := core.New(space, core.Options{Seed: seed})
		keep(err)
	}) / 1e3

	// sim, metrics, slo: direct calls on a simulator of the session's jobs.
	simulator, err := sim.New(sr.machine, sr.profiles, sim.Options{Seed: seed})
	if err != nil {
		return nil, shape, err
	}
	var sample sim.Sample
	out["sim.step_ns"] = timeCall(nil, func() { sample = simulator.Step() })
	// The extrapolating steps refuse near a phase boundary (once in a few
	// hundred ticks); a detailed step then carries the simulator across.
	out["sim.step_sampled_ns"] = timeCall(nil, func() {
		if _, ok := simulator.StepSampled(); !ok {
			simulator.Step()
		}
	})
	out["sim.skip_sampled_ns"] = timeCall(nil, func() {
		if !simulator.SkipSampled(1) {
			simulator.Step()
		}
	})
	var isolated []float64
	out["sim.measure_isolated_us"] = timeCall(nil, func() { isolated = simulator.MeasureIsolated() }) / 1e3
	out["metrics.score_ns"] = timeCall(nil, func() {
		sink += metrics.Speedups(sample.IPS, isolated)[0]
		sink += metrics.NormalizedThroughput(metrics.SumIPS, sample.IPS, isolated)
		sink += metrics.NormalizedFairness(metrics.JainIndex, sample.IPS, isolated)
	})
	specs := simulator.SLOSpecs()
	out["slo.score_ns"] = timeCall(nil, func() {
		sink += slo.AttainmentScore(specs, sample.IPS) + slo.HeadroomScore(specs, sample.IPS)
	})

	// control: one membership change on the session itself (baseline
	// re-measurement plus policy rebuild). Last, because it rebuilds the
	// engine the probes above read.
	sess := sr.sess
	lastProfile := sr.profiles[len(sr.profiles)-1]
	var churn []float64
	for i := 0; i < 5; i++ {
		removeFirst := sess.NumJobs() > 1
		t := time.Now()
		if removeFirst {
			keep(sess.RemoveWorkload(sess.NumJobs() - 1))
		} else {
			keep(sess.AddWorkload(lastProfile))
		}
		mid := time.Now()
		if removeFirst {
			keep(sess.AddWorkload(lastProfile))
		} else {
			keep(sess.RemoveWorkload(sess.NumJobs() - 1))
		}
		churn = append(churn, float64(mid.Sub(t)), float64(time.Since(mid)))
	}
	out["control.churn_op_us"] = median(churn) / 1e3
	_ = sink
	return out, shape, failed
}
