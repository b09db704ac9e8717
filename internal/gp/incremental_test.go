package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"satori/internal/linalg"
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

// pointsOf lays xs out as Points.
func pointsOf(xs [][]float64) *Points {
	var p Points
	p.Load(xs)
	return &p
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
		if mk, gk := m.Kernel(), g.kernel; mk != gk {
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
	if m.Jitter() != g.jitter {
		t.Fatalf("jitter drift: incremental %g vs fit %g", m.Jitter(), g.jitter)
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
	mi, ci := m.Posterior(pointsOf(pts))
	mg, cg := g.Posterior(pointsOf(pts))
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

// TestTriangleMatchesFit: the kept pairwise distances give the numbers a
// fresh scan gives. Over random Reset/Append/UpdateTargets sequences with
// the heuristic kernel, after every operation the incremental model's
// kernel (ℓ, σ²), jitter, Gram matrix and posterior at random points equal
// a from-scratch Fit's by Float64bits — the Gram against Eval over the
// window, Fit's own arithmetic. The inputs sit on a lattice and often
// repeat, so d² = 0 pairs (which the median skips) are common; one case in
// four is an all-duplicate window (ℓ falls back to 1); one is a window of
// 257 to 290 points in one or two dimensions, past the median's 256-point
// cap; and the dimension changes across Resets.
func TestTriangleMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	checks, zeros, fallbacks, capped, dimChanges := 0, 0, 0, 0, 0
	for trial := 0; trial < 40; trial++ {
		kind := trial % 4
		noise := []float64{1e-4, 1e-3, 1e-9}[trial%3]
		m := NewIncremental(Options{Noise: noise})
		dim := 1 + rng.Intn(6)
		var xs [][]float64
		var ys []float64
		point := func() []float64 {
			if len(xs) > 0 && (kind == 1 || rng.Intn(4) == 0) {
				return append([]float64(nil), xs[rng.Intn(len(xs))]...)
			}
			x := make([]float64, dim)
			for d := range x {
				x[d] = float64(rng.Intn(8)) / 7
				if kind == 2 {
					x[d] = rng.Float64() // distinct distances past the cap
				}
			}
			return x
		}
		reset := func() {
			n := 1 + rng.Intn(40)
			if kind == 2 {
				n, dim = 257+rng.Intn(34), 1+rng.Intn(2)
				capped++
			} else if newDim := 1 + rng.Intn(6); len(xs) > 0 && newDim != dim {
				dim = newDim
				dimChanges++
			}
			xs, ys = xs[:0], ys[:0]
			for len(xs) < n {
				xs = append(xs, point())
				ys = append(ys, rng.NormFloat64())
			}
			if err := m.Reset(xs, ys); err != nil {
				t.Fatalf("trial %d: Reset: %v", trial, err)
			}
		}
		reset()
		steps := 10
		if kind == 2 {
			steps = 4 // each check refits 257+ points from scratch
		}
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(4); {
			case op == 0 && kind != 2:
				reset()
			case op <= 1:
				for i := range ys {
					ys[i] = 0.7*ys[i] + 0.3*rng.NormFloat64()
				}
				if err := m.UpdateTargets(ys); err != nil {
					t.Fatalf("trial %d step %d: UpdateTargets: %v", trial, step, err)
				}
			default:
				x := point()
				xs, ys = append(xs, x), append(ys, rng.NormFloat64())
				if err := m.Append(x, ys); err != nil {
					t.Fatalf("trial %d step %d: Append: %v", trial, step, err)
				}
			}
			g := fitReference(t, Options{Noise: noise}, xs, ys)
			ctx := fmt.Sprintf("trial %d step %d (n %d, dim %d)", trial, step, len(xs), dim)
			mk, gk := m.Kernel(), g.kernel
			if !sameFloat(mk.LengthScale, gk.LengthScale) || !sameFloat(mk.Variance, gk.Variance) || !sameFloat(m.Jitter(), g.jitter) {
				t.Fatalf("%s: kernel %+v jitter %v, Fit %+v jitter %v", ctx, mk, m.Jitter(), gk, g.jitter)
			}
			n := len(xs)
			row := make([]float64, n)
			for i := 0; i < n; i++ {
				m.gramRow(row[:i], i)
				for j := 0; j < i; j++ {
					want := gk.Eval(xs[i], xs[j])
					if linalg.SquaredDistance(xs[i], xs[j]) == 0 {
						zeros++
					}
					if got := row[j]; !sameFloat(got, want) {
						t.Fatalf("%s: Gram (%d, %d) = %v, Fit's Eval %v", ctx, i, j, got, want)
					}
				}
				for j := 0; j <= i; j++ {
					if got, want := m.chol.LAt(i, j), g.chol.LAt(i, j); !sameFloat(got, want) {
						t.Fatalf("%s: factor (%d, %d) = %v, Fit's %v", ctx, i, j, got, want)
					}
				}
			}
			for q := 0; q < 4; q++ {
				x := point()
				mi, si := predictOne(m, x)
				mg, sg := g.Predict(x)
				if !sameFloat(mi, mg) || !sameFloat(si, sg) {
					t.Fatalf("%s: posterior at %v = (%v, %v), Fit (%v, %v)", ctx, x, mi, si, mg, sg)
				}
			}
			if gk.LengthScale == 1 && kind == 1 {
				fallbacks++
			}
			checks++
		}
	}
	if zeros == 0 || fallbacks == 0 || capped == 0 || dimChanges == 0 {
		t.Fatalf("%d checks: %d zero-distance pairs, %d fallback length scales, %d capped windows, %d dimension changes: a case was not exercised",
			checks, zeros, fallbacks, capped, dimChanges)
	}
	t.Logf("%d checks: %d zero-distance pairs, %d fallback length scales, %d capped windows, %d dimension changes", checks, zeros, fallbacks, capped, dimChanges)
}

// sameFloat reports whether a and b have the same bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
