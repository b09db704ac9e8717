package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// basisBound is how far α formed from the goal basis may sit from the
// solve α = K̃⁻¹(y − mean) over the same factor, relative to the larger of
// the solve's largest entry and the largest term the basis sums (where
// the terms cancel, both round relative to those), and how far a mean that α yields — a block's weighted
// projections, a window row's closed form — may sit from the mean the
// solved α yields, relative to the scale of its sum, |mean| + k(x, x)·Σ|α|.
const basisBound = 1e-12

// basisRun is what one FuzzGoalBasis input exercised.
type basisRun struct {
	builds, columns, rebuildsOnThird, epochs int
	alphaGap, muGap                          float64
}

// goalValues draws n goal values around 0.5: spread 0.05 keeps the
// targets' variance on the heuristic's floor, spread 0.5 lifts it off.
func goalValues(rng *rand.Rand, n int, spread float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.5 + spread*(rng.Float64()-0.5)
	}
	return v
}

// weighted is y_i = wT·t_i + wF·f_i, the engine's objective.
func weighted(t, f []float64, wT, wF float64) []float64 {
	y := make([]float64, len(t))
	for i := range y {
		y[i] = wT*t[i] + wF*f[i]
	}
	return y
}

// checkBasis holds the model, just updated to the goals t, f under wT, wF,
// to the solve over its own factor: α within basisBound, the window means
// and blk's means within basisBound of the means the solved α gives, and a
// block re-scored from its projections to the bits of a fresh fill.
func checkBasis(t *testing.T, ctx string, m *Incremental, tg, fg []float64, wT, wF float64, pts [][]float64, blk *Block, run *basisRun) {
	t.Helper()
	y := weighted(tg, fg, wT, wF)
	mean := sampleMean(y)
	ctr := make([]float64, len(y))
	for i, v := range y {
		ctr[i] = v - mean
	}
	solved := m.chol.SolveVec(ctr)
	if m.mean != mean {
		t.Fatalf("%s: prior mean %v, targets' %v", ctx, m.mean, mean)
	}
	scale, sumAlpha := 0.0, 0.0
	for _, a := range solved {
		scale = max(scale, math.Abs(a))
		sumAlpha += math.Abs(a)
	}
	terms := 0.0 // the largest |coef_j·b_j[i]| α sums
	for j, c := range m.basis[:m.active()] {
		for _, b := range m.slot(slotBeta + j) {
			terms = max(terms, math.Abs(c*b))
		}
	}
	scale = max(scale, terms)
	for i, a := range m.alpha {
		gap := math.Abs(a-solved[i]) / scale
		if !(gap <= basisBound) {
			t.Fatalf("%s: α[%d] = %v, the solve's %v: %.3g of its scale (goals %d, live %v)", ctx, i, a, solved[i], gap, m.goals, m.live[:m.nlive])
		}
		run.alphaGap = max(run.alphaGap, gap)
	}
	kxx := m.kernel.Variance
	muScale := math.Abs(mean) + kxx*sumAlpha
	for i, got := range m.PredictMeansAtInto(nil) {
		if want := y[i] - m.jitter*solved[i]; !(math.Abs(got-want) <= basisBound*muScale) {
			t.Fatalf("%s: window mean %d = %v, the solve's %v", ctx, i, got, want)
		}
	}
	q := len(pts)
	mu, sigma := make([]float64, q), make([]float64, q)
	if !m.RepredictBlockInto(blk, mu, sigma) {
		m.PredictBlockInto(&PredictScratch{}, blk, mu, sigma, pointsOf(pts))
	}
	fresh, freshSigma := make([]float64, q), make([]float64, q)
	m.PredictBlockInto(&PredictScratch{}, &Block{}, fresh, freshSigma, pointsOf(pts))
	kstar := make([]float64, len(solved))
	for c, x := range pts {
		if !sameFloat(mu[c], fresh[c]) || !sameFloat(sigma[c], freshSigma[c]) {
			t.Fatalf("%s: point %d re-scored (%v, %v), a fresh fill (%v, %v)", ctx, c, mu[c], sigma[c], fresh[c], freshSigma[c])
		}
		for i, xi := range m.xbuf[:m.n] {
			kstar[i] = m.kernel.Eval(x, xi)
		}
		want := mean + dotOf(kstar, solved)
		gap := math.Abs(mu[c]-want) / muScale
		if !(gap <= basisBound) {
			t.Fatalf("%s: point %d mean %v, the solve's %v: %.3g of its scale", ctx, c, mu[c], want, gap)
		}
		run.muGap = max(run.muGap, gap)
	}
}

// dotOf is Σ a_i·b_i.
func dotOf(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// FuzzGoalBasis drives UpdateGoals over a random window through weight
// sequences, moves of one, two and three rows' goals, appends and
// floor-crossing targets (new epochs), and after every update holds α, the
// window means and a block's means to the solve over the same factor
// (checkBasis). It also pins the basis's bookkeeping: a tick that moves no
// row and keeps the epoch solves nothing; one that moves three fresh rows
// rebuilds the basis; one that moves fewer takes a column each while
// columns are left.
func FuzzGoalBasis(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(3), uint8(60))
	f.Add(int64(2), uint8(64), uint8(15), uint8(80))
	f.Add(int64(3), uint8(2), uint8(1), uint8(30))
	f.Add(int64(4), uint8(40), uint8(6), uint8(120))
	f.Add(int64(46), uint8(0), uint8(3), uint8(17)) // two rows, both live: α cancels
	f.Fuzz(func(t *testing.T, seed int64, n, dim, steps uint8) {
		run := fuzzGoalBasis(t, seed, 2+int(n)%63, 1+int(dim)%16, 1+int(steps)%150)
		t.Logf("%+v", run)
	})
}

// fuzzGoalBasis is one FuzzGoalBasis input: a window of n points of
// dimension dim through steps updates.
func fuzzGoalBasis(t *testing.T, seed int64, n, dim, steps int) basisRun {
	rng := rand.New(rand.NewSource(seed))
	xs := randomInputs(rng, n, dim)
	tg, fg := goalValues(rng, n, 0.05), goalValues(rng, n, 0.05)
	wT := rng.Float64()
	m := NewIncremental(Options{Noise: 1e-3})
	if err := m.Reset(xs, weighted(tg, fg, wT, 1-wT)); err != nil {
		t.Skip(err) // a window no jitter factors; nothing to update
	}
	pts := randomInputs(rng, panelWidth+5, dim)
	var blk Block
	var run basisRun
	for step := 0; step < steps; step++ {
		ctx := fmt.Sprintf("seed %d step %d", seed, step)
		wT = min(1, max(0, wT+0.1*rng.NormFloat64()))
		before, epoch := m.Stats(), m.epoch
		moved := 0
		switch k := rng.Intn(10); {
		case k == 0 && m.n < 80:
			xs = append(xs, randomInputs(rng, 1, dim)[0])
			tg, fg = append(tg, goalValues(rng, 1, 0.05)...), append(fg, goalValues(rng, 1, 0.05)...)
			if err := m.Append(xs[len(xs)-1], weighted(tg, fg, wT, 1-wT)); err != nil {
				t.Fatalf("%s: Append: %v", ctx, err)
			}
			continue
		case k == 1:
			// Wide goals lift the variance heuristic off its floor, or
			// flat ones put it back: a refit, so a new epoch.
			spread := []float64{0.05, 1.5}[rng.Intn(2)]
			tg, fg = goalValues(rng, m.n, spread), goalValues(rng, m.n, spread)
			moved = m.n
		case k <= 5:
			moved = 1 + rng.Intn(3)
			for _, i := range rng.Perm(m.n)[:min(moved, m.n)] {
				tg[i] = 0.5 + 0.05*(rng.Float64()-0.5)
				if rng.Intn(2) == 0 {
					fg[i] = 0.5 + 0.05*(rng.Float64()-0.5)
				}
			}
			moved = min(moved, m.n)
		}
		liveBefore, stale := int(m.nlive), m.goals == 0
		if err := m.UpdateGoals(tg, fg, wT, 1-wT); err != nil {
			t.Fatalf("%s: UpdateGoals: %v", ctx, err)
		}
		after := m.Stats()
		builds, columns := after.BasisBuilds-before.BasisBuilds, after.ColumnSolves-before.ColumnSolves
		run.builds += builds
		run.columns += columns
		switch {
		case stale || m.epoch != epoch:
			run.epochs++
			if builds != 1 || columns != 0 {
				t.Fatalf("%s: a new epoch took %d builds and %d columns, want 1 and 0", ctx, builds, columns)
			}
		case moved == 0 && (builds != 0 || columns != 0):
			t.Fatalf("%s: re-weighting alone took %d builds and %d columns", ctx, builds, columns)
		case liveBefore+columns > maxLive || builds == 0 && moved > maxLive:
			t.Fatalf("%s: %d moved rows took %d columns with %d live", ctx, moved, columns, liveBefore)
		case moved == 3 && builds == 1:
			run.rebuildsOnThird++
		}
		if m.goals != maxGoals || int(m.nlive) > maxLive || columns > moved {
			t.Fatalf("%s: %d goals, %d live rows, %d columns for %d moved rows", ctx, m.goals, m.nlive, columns, moved)
		}
		checkBasis(t, ctx, m, tg, fg, wT, 1-wT, pts, &blk, &run)
	}
	return run
}
