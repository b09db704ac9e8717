package core

import (
	"math"
	"reflect"
	"testing"

	"satori/internal/gp"
)

// basisBound is how far the goal-basis engine's α, window means and pool
// means may sit from the solved engine's: α relative to the solve's
// largest entry, a mean relative to the scale of its sum,
// |mean| + k(x, x)·Σ|α|. The basis sums its solves in another order than
// one solve does, so the last bits differ (≈ 1e-15).
const basisBound = 1e-12

// basisRun is what one basis-versus-solved lockstep run saw.
type basisRun struct {
	scored, builds, columns  int
	alphaGap, meanGap, muGap float64 // the largest relative gaps
}

// modelAlpha reads the model's α, which no API exports.
func modelAlpha(m *gp.Incremental) []float64 {
	v := reflect.ValueOf(m).Elem().FieldByName("alpha")
	alpha := make([]float64, v.Len())
	for i := range alpha {
		alpha[i] = v.Index(i).Float()
	}
	return alpha
}

// lockstepBasis runs an engine whose target-only ticks form α from the goal
// basis (UpdateGoals) and one with the test-only solvedTargets switch,
// which solves α from the weighted objectives (UpdateTargets, the parent
// behaviour to the bit), built from the same options, on the same
// observations for ticks ticks; the environment follows the solved engine.
// Every tick:
//   - the RNG states agree, and so do the settled counts, so both engines
//     draw and lay out the same fresh panel;
//   - both engines' models took the same refits and extends, so every
//     fresh σ agrees to the bit and both engines filled the same blocks
//     afresh; the rest each re-scored from its slot or a shadow, which
//     split apart where a shadow's projections cover one basis and not
//     the other;
//   - α, the window means and every scored candidate's μ are within
//     basisBound of the solved engine's;
//   - the decisions agree.
func lockstepBasis(t *testing.T, opt Options, env environment, ticks int) basisRun {
	t.Helper()
	space, observe := env(t)
	basis, err := New(space, opt)
	if err != nil {
		t.Fatal(err)
	}
	solved, err := New(space, opt)
	if err != nil {
		t.Fatal(err)
	}
	solved.solvedTargets = true
	var run basisRun
	current := space.EqualSplit()
	for tick := 1; tick <= ticks; tick++ {
		bb, sb := basis.Stats(), solved.Stats()
		obs := observe(tick, current)
		got, want := basis.Decide(obs, current), solved.Decide(obs, current)
		bd, sd := addStats(basis.Stats(), bb, -1), addStats(solved.Stats(), sb, -1)
		if *basis.rng != *solved.rng || basis.settled != solved.settled {
			t.Fatalf("tick %d: the engines parted: random streams equal %v, settled counts %d and %d",
				tick, *basis.rng == *solved.rng, basis.settled, solved.settled)
		}
		if bd.Refits != sd.Refits || bd.Extends != sd.Extends || bd.BlockMisses != sd.BlockMisses ||
			bd.BlockHits+bd.BlockRevivals != sd.BlockHits+sd.BlockRevivals || bd.NarrowTicks != sd.NarrowTicks || bd.FitFailures != sd.FitFailures {
			t.Fatalf("tick %d: basis engine %+v, solved engine %+v", tick, bd, sd)
		}
		if bd.ModelTicks == 1 && bd.FitFailures == 0 {
			run.scored++
			compareBasis(t, tick, basis, solved, bd.NarrowTicks == 1, bd.FreshSkips == sd.FreshSkips, &run)
		}
		if !got.Equal(want) {
			t.Fatalf("tick %d: basis engine decided %s, solved engine %s", tick, got.Key(), want.Key())
		}
		current = want
	}
	gs := basis.GPStats()
	run.builds, run.columns = gs.BasisBuilds, gs.ColumnSolves
	return run
}

// compareBasis holds one scored tick's models and pools to each other.
func compareBasis(t *testing.T, tick int, basis, solved *Engine, narrowed, sigmas bool, run *basisRun) {
	t.Helper()
	ba, sa := modelAlpha(basis.model), modelAlpha(solved.model)
	scale, sumAlpha := 0.0, 0.0
	for _, a := range sa {
		scale = max(scale, math.Abs(a))
		sumAlpha += math.Abs(a)
	}
	for i := range sa {
		gap := math.Abs(ba[i]-sa[i]) / scale
		if !(gap <= basisBound) {
			t.Fatalf("tick %d: α[%d] = %v, the solved engine's %v: %.3g of its scale", tick, i, ba[i], sa[i], gap)
		}
		run.alphaGap = max(run.alphaGap, gap)
	}
	bm, sm := basis.model.PredictMeansAtInto(nil), solved.model.PredictMeansAtInto(nil)
	for i := range sm {
		gap := math.Abs(bm[i]-sm[i]) / max(math.Abs(sm[i]), 1e-9)
		if !(gap <= basisBound) {
			t.Fatalf("tick %d: window mean %d = %v, the solved engine's %v", tick, i, bm[i], sm[i])
		}
		run.meanGap = max(run.meanGap, gap)
	}
	if basis.candCount != solved.candCount {
		t.Fatalf("tick %d: pools of %d and %d candidates", tick, basis.candCount, solved.candCount)
	}
	lo, hi := unscored(basis, narrowed)
	bMu, bSigma := basis.posterior()
	sMu, sSigma := solved.posterior()
	kxx := solved.model.PriorSigma() * solved.model.PriorSigma()
	muScale := math.Abs(reflect.ValueOf(solved.model).Elem().FieldByName("mean").Float()) + kxx*sumAlpha
	for i := 0; i < basis.candCount; i++ {
		if lo <= i && i < hi {
			continue
		}
		if i < basis.opt.Candidates && !basis.candidateCfg[i].Equal(solved.candidateCfg[i]) {
			t.Fatalf("tick %d: candidate %d drawn differently", tick, i)
		}
		gap := math.Abs(bMu[i]-sMu[i]) / muScale
		if !(gap <= basisBound) {
			t.Fatalf("tick %d: candidate %d μ %v, the solved engine's %v: %.3g of its scale", tick, i, bMu[i], sMu[i], gap)
		}
		run.muGap = max(run.muGap, gap)
		if (i >= basis.opt.Candidates || sigmas) && math.Float64bits(bSigma[i]) != math.Float64bits(sSigma[i]) {
			t.Fatalf("tick %d: candidate %d σ %v, the solved engine's %v", tick, i, bSigma[i], sSigma[i])
		}
	}
}

// TestBasisTargetsMatchSolvedTargets holds the engine's goal-basis α to
// the per-tick solve it replaced, in lockstep on the synthetic environment
// and PARSEC mixes 0–2 under dynamic, static-fairness and SLO-aware
// weights: same draws, same model updates, α, window means and every
// scored μ within basisBound, σ to the bit, and the same decision on every
// tick. A decision could differ only where two candidates tie to within
// the rounding gap (DESIGN.md §4, "Re-baselining"); none of these runs
// meets such a tie.
func TestBasisTargetsMatchSolvedTargets(t *testing.T) {
	for _, row := range []struct {
		name string
		opt  Options
		env  environment
	}{
		{"synthetic window 16", Options{Seed: 9, Window: 16}, synthetic(0)},
		{"synthetic window 64", Options{Seed: 11, Window: 64, ExploitThreshold: 0.002}, synthetic(0)},
		{"synthetic, a failed fit", Options{Seed: 5, Window: 16}, synthetic(60)},
		{"mix 0 window 16", Options{Seed: 23, Window: 16}, simulated(0)},
		{"mix 0 window 64", Options{Seed: 23, Window: 64}, simulated(0)},
		{"mix 1 window 64", Options{Seed: 23, Window: 64}, simulated(1)},
		{"mix 2 window 64", Options{Seed: 7, Window: 64}, simulated(2)},
		{"mix 0 fairness", Options{Seed: 23, Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWTSet: true}, simulated(0)},
		{"mix 1 fairness", Options{Seed: 23, Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWTSet: true}, simulated(1)},
		{"mix 2 fairness", Options{Seed: 7, Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWTSet: true}, simulated(2)},
		{"mix 0 slo", Options{Seed: 42, Scheduler: SchedulerOptions{Mode: WeightsSLOAware}}, simulated(0)},
		{"mix 2 slo", Options{Seed: 42, Scheduler: SchedulerOptions{Mode: WeightsSLOAware}}, simulated(2)},
		{"mix 0 pi", Options{Seed: 23, Acquisition: "pi"}, simulated(0)},
		{"mix 1 pi", Options{Seed: 23, Acquisition: "pi"}, simulated(1)},
		{"mix 0 ucb", Options{Seed: 23, Acquisition: "ucb"}, simulated(0)},
		{"mix 1 ts", Options{Seed: 23, Acquisition: "ts"}, simulated(1)},
	} {
		run := lockstepBasis(t, row.opt, row.env, 400)
		if run.scored < 250 || run.builds == 0 || run.columns == 0 {
			t.Fatalf("%s: %+v", row.name, run)
		}
		t.Logf("%s: %d scored ticks, %d basis builds, %d column solves; largest relative gaps α %.2g, window means %.2g, μ %.2g",
			row.name, run.scored, run.builds, run.columns, run.alphaGap, run.meanGap, run.muGap)
	}
}
