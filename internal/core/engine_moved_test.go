package core

import (
	"math"
	"testing"
)

// movedRun is what one moved-versus-dense lockstep run saw.
type movedRun struct {
	scored, misses  int
	muErr, sigmaErr float64 // the largest relative block μ and σ gaps
}

// lockstepMoved runs an engine that fills missed neighborhood blocks from
// their moves and one with the test-only denseBlocks switch, built from the
// same options, on the same observations for ticks ticks; the environment
// follows the dense engine. Every tick:
//   - the RNG states agree, and so do the settled counts, so both engines
//     draw and lay out the same fresh panel;
//   - every scored fresh candidate has the same μ bits, and the same σ bits
//     when both engines solved or both bounded the fresh panel;
//   - every block entry is within movedBound of the dense engine's;
//   - the moved engine scored as many blocks and filled at most the ones
//     the dense engine filled afresh: the dense engine keeps no shadows, so
//     a block the moved engine revives is a fill there;
//   - the decisions agree.
func lockstepMoved(t *testing.T, opt Options, env environment, ticks int) movedRun {
	t.Helper()
	space, observe := env(t)
	moved, err := New(space, opt)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := New(space, opt)
	if err != nil {
		t.Fatal(err)
	}
	dense.denseBlocks = true
	var run movedRun
	current := space.EqualSplit()
	for tick := 1; tick <= ticks; tick++ {
		mb, db := moved.Stats(), dense.Stats()
		obs := observe(tick, current)
		got, want := moved.Decide(obs, current), dense.Decide(obs, current)
		md, dd := addStats(moved.Stats(), mb, -1), addStats(dense.Stats(), db, -1)
		if *moved.rng != *dense.rng || moved.settled != dense.settled {
			t.Fatalf("tick %d: the engines parted: random streams equal %v, settled counts %d and %d",
				tick, *moved.rng == *dense.rng, moved.settled, dense.settled)
		}
		if md.BlockHits+md.BlockRevivals+md.BlockMisses != dd.BlockHits+dd.BlockMisses || md.BlockMisses > dd.BlockMisses ||
			dd.BlockRevivals != 0 || md.NarrowTicks != dd.NarrowTicks {
			t.Fatalf("tick %d: moved engine %+v, dense engine %+v", tick, md, dd)
		}
		if md.ModelTicks == 1 && md.FitFailures == 0 {
			run.scored++
			run.misses += md.BlockMisses
			compareMoved(t, tick, moved, dense, md.NarrowTicks == 1, md.FreshSkips == dd.FreshSkips, &run)
		}
		if !got.Equal(want) {
			t.Fatalf("tick %d: moved engine decided %s, dense engine %s", tick, got.Key(), want.Key())
		}
		current = want
	}
	return run
}

// compareMoved holds one scored tick's pools to each other: the fresh
// candidates bit for bit, the blocks within movedBound.
func compareMoved(t *testing.T, tick int, moved, dense *Engine, narrowed, sigmas bool, run *movedRun) {
	t.Helper()
	if moved.candCount != dense.candCount {
		t.Fatalf("tick %d: pools of %d and %d candidates", tick, moved.candCount, dense.candCount)
	}
	lo, hi := unscored(moved, narrowed)
	mMu, mSigma := moved.posterior()
	dMu, dSigma := dense.posterior()
	prior := moved.model.PriorSigma()
	for i := 0; i < moved.candCount; i++ {
		if lo <= i && i < hi {
			continue
		}
		if i < moved.opt.Candidates {
			if !moved.candidateCfg[i].Equal(dense.candidateCfg[i]) ||
				math.Float64bits(mMu[i]) != math.Float64bits(dMu[i]) ||
				sigmas && math.Float64bits(mSigma[i]) != math.Float64bits(dSigma[i]) {
				t.Fatalf("tick %d: fresh candidate %d scored (%v, %v), the dense engine's (%v, %v)", tick, i, mMu[i], mSigma[i], dMu[i], dSigma[i])
			}
			continue
		}
		if !withinMoved(mMu[i], dMu[i], 0) || !withinMoved(mSigma[i], dSigma[i], prior) {
			t.Fatalf("tick %d: block candidate %d scored (%v, %v), the dense engine's (%v, %v): beyond %g",
				tick, i, mMu[i], mSigma[i], dMu[i], dSigma[i], movedBound)
		}
		run.muErr = max(run.muErr, math.Abs(mMu[i]-dMu[i])/max(math.Abs(dMu[i]), math.SmallestNonzeroFloat64))
		run.sigmaErr = max(run.sigmaErr, math.Abs(mSigma[i]-dSigma[i])/max(dSigma[i], prior))
	}
}

// TestMovedBlocksMatchDenseBlocks holds the engine's moved neighborhood
// blocks to the dense fill they replaced, in lockstep on the synthetic
// environment and PARSEC mixes 0 and 1 at Window 16 and 64, and on mixes
// 0–2 under static fairness and SLO-aware weights: same draws, the fresh
// candidates' μ and σ to the bit, every block entry within movedBound, and
// the same decision on every tick. A decision could differ only where two
// candidates tie to a few ulps, which each fill breaks its own way
// (DESIGN.md §4, "Re-baselining"); none of these runs meets such a tie.
func TestMovedBlocksMatchDenseBlocks(t *testing.T) {
	for _, row := range []struct {
		name string
		opt  Options
		env  environment
	}{
		{"synthetic window 16", Options{Seed: 9, Window: 16}, synthetic(0)},
		{"synthetic window 64", Options{Seed: 11, Window: 64, ExploitThreshold: 0.002}, synthetic(0)},
		{"mix 0 window 16", Options{Seed: 23, Window: 16}, simulated(0)},
		{"mix 0 window 64", Options{Seed: 23, Window: 64}, simulated(0)},
		{"mix 1 window 16", Options{Seed: 23, Window: 16}, simulated(1)},
		{"mix 1 window 64", Options{Seed: 23, Window: 64}, simulated(1)},
		{"mix 0 fairness", Options{Seed: 23, Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWTSet: true}, simulated(0)},
		{"mix 1 fairness", Options{Seed: 23, Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWTSet: true}, simulated(1)},
		{"mix 2 fairness", Options{Seed: 7, Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWTSet: true}, simulated(2)},
		{"mix 0 slo", Options{Seed: 42, Scheduler: SchedulerOptions{Mode: WeightsSLOAware}}, simulated(0)},
	} {
		run := lockstepMoved(t, row.opt, row.env, 400)
		if run.scored < 250 || run.misses == 0 {
			t.Fatalf("%s: %+v", row.name, run)
		}
		t.Logf("%s: %d scored ticks, %d blocks filled from moves, largest relative gap μ %.2g σ %.2g",
			row.name, run.scored, run.misses, run.muErr, run.sigmaErr)
	}
}
