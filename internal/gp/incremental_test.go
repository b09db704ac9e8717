package gp

import (
	"math"
	"math/rand"
	"testing"
)

// fitReference fits a from-scratch GP on the same data and options, the
// golden model the incremental path must agree with.
func fitReference(t *testing.T, opt Options, xs [][]float64, ys []float64) *GP {
	t.Helper()
	g, err := Fit(xs, ys, opt)
	if err != nil {
		t.Fatalf("reference Fit: %v", err)
	}
	return g
}

// fitIncremental returns the incremental model fitted on the same data and
// options.
func fitIncremental(t *testing.T, opt Options, xs [][]float64, ys []float64) *Incremental {
	t.Helper()
	m := NewIncremental(opt)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	return m
}

// predictOne is the incremental model's posterior at x alone: a one-point
// pool through the batch scorer.
func predictOne(m *Incremental, x []float64) (mu, sigma float64) {
	var one [2]float64
	m.PredictBatchInto(&PredictScratch{}, one[:1], one[1:], [][]float64{x})
	return one[0], one[1]
}

func randomInputs(rng *rand.Rand, n, dim int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = rng.Float64()
		}
	}
	return xs
}

func randomTargets(rng *rand.Rand, xs [][]float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		s := 0.0
		for _, v := range x {
			s += math.Sin(3 * v)
		}
		ys[i] = s + 0.05*rng.NormFloat64()
	}
	return ys
}

// comparePosteriors checks incremental vs reference posterior mean/σ at
// random query points to within tol.
func comparePosteriors(t *testing.T, m *Incremental, g *GP, rng *rand.Rand, dim int, tol float64, ctx string) {
	t.Helper()
	for q := 0; q < 8; q++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64() * 1.2
		}
		mi, si := predictOne(m, x)
		mg, sg := g.Predict(x)
		if math.Abs(mi-mg) > tol || math.Abs(si-sg) > tol {
			t.Fatalf("%s: posterior mismatch at query %d: incremental (%.12g, %.12g) vs fit (%.12g, %.12g)",
				ctx, q, mi, si, mg, sg)
		}
	}
}

// TestIncrementalMatchesFitFixedKernel is the golden equivalence test for
// the ISSUE acceptance criterion: across appends, target re-weightings,
// and window evictions, the incremental posterior matches a from-scratch
// Fit within 1e-9. With a pinned kernel the append path always uses the
// O(n²) Cholesky Extend.
func TestIncrementalMatchesFitFixedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opt := Options{Kernel: Matern52{LengthScale: 0.6, Variance: 1.0}, Noise: 1e-3}
	const dim = 6

	m := NewIncremental(opt)
	xs := randomInputs(rng, 4, dim)
	ys := randomTargets(rng, xs)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}

	for step := 0; step < 60; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(xs) < 3: // append
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Float64()
			}
			xs = append(xs, append([]float64(nil), x...))
			ys = append(ys, math.Sin(3*x[0])+0.05*rng.NormFloat64())
			if err := m.Append(x, ys); err != nil {
				t.Fatalf("step %d: Append: %v", step, err)
			}
		case op == 1: // target re-weighting over the unchanged window
			for i := range ys {
				ys[i] = 0.7*ys[i] + 0.3*rng.NormFloat64()
			}
			if err := m.UpdateTargets(ys); err != nil {
				t.Fatalf("step %d: UpdateTargets: %v", step, err)
			}
		default: // window eviction: drop the oldest point
			xs = xs[1:]
			ys = ys[1:]
			if err := m.Reset(xs, ys); err != nil {
				t.Fatalf("step %d: Reset after eviction: %v", step, err)
			}
		}
		g := fitReference(t, opt, xs, ys)
		comparePosteriors(t, m, g, rng, dim, 1e-9, "fixed kernel")
	}
	st := m.Stats()
	if st.Extends == 0 {
		t.Fatalf("fixed-kernel run never exercised the Extend path: %+v", st)
	}
	if st.TargetSolves == 0 {
		t.Fatalf("run never exercised the α-only solve path: %+v", st)
	}
}

// TestIncrementalMatchesFitHeuristicKernel exercises the default no-tuning
// heuristics: the incremental model must re-evaluate the median
// length-scale and floored variance on membership changes and refit only
// when they move, yet always agree with a from-scratch Fit.
func TestIncrementalMatchesFitHeuristicKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opt := Options{Noise: 1e-3}
	const dim = 4

	m := NewIncremental(opt)
	xs := randomInputs(rng, 5, dim)
	ys := randomTargets(rng, xs)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}

	for step := 0; step < 40; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(xs) < 3:
			x := make([]float64, dim)
			for d := range x {
				x[d] = rng.Float64()
			}
			xs = append(xs, append([]float64(nil), x...))
			ys = append(ys, math.Sin(3*x[0])+0.05*rng.NormFloat64())
			if err := m.Append(x, ys); err != nil {
				t.Fatalf("step %d: Append: %v", step, err)
			}
		case op == 1:
			for i := range ys {
				ys[i] = 0.8*ys[i] + 0.2*rng.NormFloat64()
			}
			if err := m.UpdateTargets(ys); err != nil {
				t.Fatalf("step %d: UpdateTargets: %v", step, err)
			}
		default:
			xs = xs[1:]
			ys = ys[1:]
			if err := m.Reset(xs, ys); err != nil {
				t.Fatalf("step %d: Reset after eviction: %v", step, err)
			}
		}
		g := fitReference(t, opt, xs, ys)
		comparePosteriors(t, m, g, rng, dim, 1e-9, "heuristic kernel")

		// The heuristics the incremental model settled on must be the
		// ones Fit derives from the same data.
		if mk, gk := m.Kernel(), g.Kernel(); mk != gk {
			t.Fatalf("step %d: kernel drift: incremental %+v vs fit %+v", step, mk, gk)
		}
	}
}

// TestIncrementalTargetSolveSkipsRefit pins the engine's exploit-tick fast
// path: with membership unchanged and the variance floor binding (small
// targets), UpdateTargets must not refactorize.
func TestIncrementalTargetSolveSkipsRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewIncremental(Options{Noise: 1e-3})
	xs := randomInputs(rng, 12, 5)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = 0.01 * rng.Float64() // variance well under the 0.01 floor
	}
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	refits := m.Stats().Refits
	for k := 0; k < 10; k++ {
		for i := range ys {
			ys[i] = 0.01 * rng.Float64()
		}
		if err := m.UpdateTargets(ys); err != nil {
			t.Fatalf("UpdateTargets: %v", err)
		}
	}
	st := m.Stats()
	if st.Refits != refits {
		t.Fatalf("UpdateTargets refactorized %d times with unchanged membership", st.Refits-refits)
	}
	if st.TargetSolves != 10 {
		t.Fatalf("TargetSolves = %d, want 10", st.TargetSolves)
	}
}

// TestIncrementalDuplicateAppendFallsBack appends an exact duplicate
// input, which makes the extended kernel matrix numerically singular at
// base jitter; the model must fall back to refactorization with jitter
// escalation — the same escape hatch Fit has — and still match it.
func TestIncrementalDuplicateAppendFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opt := Options{Kernel: Matern52{LengthScale: 0.7, Variance: 1.0}, Noise: 1e-9}
	m := NewIncremental(opt)
	xs := randomInputs(rng, 6, 3)
	ys := randomTargets(rng, xs)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	dup := append([]float64(nil), xs[2]...)
	xs = append(xs, dup)
	ys = append(ys, ys[2])
	if err := m.Append(dup, ys); err != nil {
		t.Fatalf("Append duplicate: %v", err)
	}
	g := fitReference(t, opt, xs, ys)
	comparePosteriors(t, m, g, rng, 3, 1e-6, "duplicate append")
	if m.Jitter() != g.Jitter() {
		t.Fatalf("jitter drift: incremental %g vs fit %g", m.Jitter(), g.Jitter())
	}
}

// TestIncrementalErrorsLeaveModelEmpty: malformed updates must not leave a
// half-updated posterior behind.
func TestIncrementalErrorsLeaveModelEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewIncremental(Options{})
	xs := randomInputs(rng, 4, 3)
	ys := randomTargets(rng, xs)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := m.Append([]float64{1, 2}, append(ys, 0)); err == nil {
		t.Fatal("Append with wrong dim should fail")
	}
	if m.Len() != 0 {
		t.Fatalf("model not empty after failed Append: Len = %d", m.Len())
	}
	// And it must be recoverable via Reset.
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset after failure: %v", err)
	}
	if m.Len() != len(xs) {
		t.Fatalf("Len = %d after recovery, want %d", m.Len(), len(xs))
	}
}

// TestIncrementalPosteriorMatchesGP checks the joint Posterior used by
// Thompson sampling agrees with the from-scratch model.
func TestIncrementalPosteriorMatchesGP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	opt := Options{Kernel: Matern52{LengthScale: 0.5, Variance: 1.0}, Noise: 1e-3}
	m := NewIncremental(opt)
	xs := randomInputs(rng, 10, 4)
	ys := randomTargets(rng, xs)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	g := fitReference(t, opt, xs, ys)
	pts := randomInputs(rng, 5, 4)
	mi, ci := m.Posterior(pts)
	mg, cg := g.Posterior(pts)
	for i := range mi {
		if math.Abs(mi[i]-mg[i]) > 1e-9 {
			t.Fatalf("posterior mean %d: %g vs %g", i, mi[i], mg[i])
		}
		for j := range mi {
			if math.Abs(ci.At(i, j)-cg.At(i, j)) > 1e-9 {
				t.Fatalf("posterior cov (%d,%d): %g vs %g", i, j, ci.At(i, j), cg.At(i, j))
			}
		}
	}
}

// TestIncrementalSteadyStateAllocs pins the zero-allocation contract on
// the hot paths: batch prediction with caller scratch, mean-only
// prediction, α-only target updates, and same-size resets are all
// alloc-free once buffers have warmed up.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	opt := Options{Kernel: Matern52{LengthScale: 0.6, Variance: 1.0}, Noise: 1e-3}
	m := NewIncremental(opt)
	xs := randomInputs(rng, 16, 5)
	ys := randomTargets(rng, xs)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	q := []float64{0.3, 0.1, 0.9, 0.5, 0.2}
	var scratch PredictScratch
	pool, mu, sigma := [][]float64{q, xs[0]}, make([]float64, 2), make([]float64, 2)
	m.PredictBatchInto(&scratch, mu, sigma, pool) // warm the scratch
	if n := testing.AllocsPerRun(50, func() { m.PredictBatchInto(&scratch, mu, sigma, pool) }); n != 0 {
		t.Fatalf("PredictBatchInto allocates %v times per call", n)
	}
	m.PredictMean(q) // warm the row buffer
	if n := testing.AllocsPerRun(50, func() { m.PredictMean(q) }); n != 0 {
		t.Fatalf("PredictMean allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := m.UpdateTargets(ys); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("UpdateTargets allocates %v times per call", n)
	}
	// Reset to the same size reuses every buffer.
	if n := testing.AllocsPerRun(50, func() {
		if err := m.Reset(xs, ys); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("same-size Reset allocates %v times per call", n)
	}
}
