package core

import (
	"math"
	"testing"
)

// shadowRun is what one shadows-versus-fresh-fills lockstep run saw.
type shadowRun struct {
	scored, revivals, refills, misses int
}

// lockstepShadows runs an engine that revives neighborhood blocks from
// their shadows and one with the test-only noShadows switch, which fills
// every block that misses its slot afresh, built from the same options, on
// the same observations for ticks ticks; the environment follows the
// engine without shadows. A shadow is revived only under the kernel epoch
// it was filled in, where its σ and projections are the bits a fresh fill
// computes, so every tick:
//   - the RNG states and the settled counts agree;
//   - both engines scored as many blocks, and the one with shadows filled
//     at most the blocks the other filled afresh;
//   - every scored μ and σ agree by Float64bits, fresh and block alike;
//   - the decisions agree.
func lockstepShadows(t *testing.T, opt Options, env environment, ticks int) shadowRun {
	t.Helper()
	space, observe := env(t)
	shadowed, err := New(space, opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(space, opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh.noShadows = true
	var run shadowRun
	current := space.EqualSplit()
	for tick := 1; tick <= ticks; tick++ {
		sb, fb := shadowed.Stats(), fresh.Stats()
		obs := observe(tick, current)
		got, want := shadowed.Decide(obs, current), fresh.Decide(obs, current)
		sd, fd := addStats(shadowed.Stats(), sb, -1), addStats(fresh.Stats(), fb, -1)
		if *shadowed.rng != *fresh.rng || shadowed.settled != fresh.settled {
			t.Fatalf("tick %d: the engines parted: random streams equal %v, settled counts %d and %d",
				tick, *shadowed.rng == *fresh.rng, shadowed.settled, fresh.settled)
		}
		if sd.BlockHits+sd.BlockRevivals+sd.BlockMisses != fd.BlockHits+fd.BlockMisses || sd.BlockMisses > fd.BlockMisses ||
			fd.BlockRevivals != 0 || sd.NarrowTicks != fd.NarrowTicks || sd.FreshSkips != fd.FreshSkips {
			t.Fatalf("tick %d: engine with shadows %+v, without %+v", tick, sd, fd)
		}
		if sd.ModelTicks == 1 && sd.FitFailures == 0 {
			run.scored++
			run.revivals += sd.BlockRevivals
			run.refills += sd.BlockRefills
			run.misses += sd.BlockMisses
			compareShadowed(t, tick, shadowed, fresh, sd.NarrowTicks == 1)
		}
		if !got.Equal(want) {
			t.Fatalf("tick %d: engine with shadows decided %s, without %s", tick, got.Key(), want.Key())
		}
		current = want
	}
	return run
}

// compareShadowed holds one scored tick's pools to each other bit for bit,
// leaving out a narrowed tick's unscored slots.
func compareShadowed(t *testing.T, tick int, shadowed, fresh *Engine, narrowed bool) {
	t.Helper()
	if shadowed.candCount != fresh.candCount {
		t.Fatalf("tick %d: pools of %d and %d candidates", tick, shadowed.candCount, fresh.candCount)
	}
	lo, hi := unscored(shadowed, narrowed)
	sMu, sSigma := shadowed.posterior()
	fMu, fSigma := fresh.posterior()
	for i := 0; i < shadowed.candCount; i++ {
		if lo <= i && i < hi {
			continue
		}
		if math.Float64bits(sMu[i]) != math.Float64bits(fMu[i]) || math.Float64bits(sSigma[i]) != math.Float64bits(fSigma[i]) {
			t.Fatalf("tick %d: candidate %d of %d scored (%v, %v) with shadows, (%v, %v) without", tick, i, shadowed.candCount, sMu[i], sSigma[i], fMu[i], fSigma[i])
		}
	}
}

// TestShadowedBlocksMatchFreshFills holds the shadow ring to filling every
// missed block afresh, in lockstep on the synthetic environment and PARSEC
// mixes 0–2, under dynamic, static-fairness and SLO-aware weights and under
// EI, UCB, PI and Thompson sampling: same draws, every scored μ and σ to
// the bit, the same decision on every tick. Revivals with and without the
// K* refill must both occur.
func TestShadowedBlocksMatchFreshFills(t *testing.T) {
	fairness := SchedulerOptions{Mode: WeightsStatic}
	var total shadowRun
	for _, row := range []struct {
		name string
		opt  Options
		env  environment
	}{
		{"ei synthetic window 16", Options{Seed: 9, Window: 16}, synthetic(0)},
		{"ei synthetic window 64", Options{Seed: 11, Window: 64, ExploitThreshold: 0.002}, synthetic(0)},
		{"ei synthetic, a failed fit", Options{Seed: 9, Window: 4}, synthetic(200)},
		{"ei mix 0", Options{Seed: 23}, simulated(0)},
		{"ei mix 1 window 16", Options{Seed: 23, Window: 16}, simulated(1)},
		{"ei mix 2", Options{Seed: 7}, simulated(2)},
		{"fairness mix 0", Options{Seed: 23, Scheduler: fairness, StaticWTSet: true}, simulated(0)},
		{"fairness mix 1", Options{Seed: 23, Scheduler: fairness, StaticWTSet: true}, simulated(1)},
		{"fairness mix 2", Options{Seed: 7, Scheduler: fairness, StaticWTSet: true}, simulated(2)},
		{"slo mix 0", Options{Seed: 42, Scheduler: SchedulerOptions{Mode: WeightsSLOAware}}, simulated(0)},
		{"slo mix 1", Options{Seed: 42, Scheduler: SchedulerOptions{Mode: WeightsSLOAware}}, simulated(1)},
		{"ucb synthetic", Options{Seed: 9, Acquisition: "ucb"}, synthetic(0)},
		{"pi mix 0", Options{Seed: 9, Acquisition: "pi"}, simulated(0)},
		{"ts synthetic", Options{Seed: 9, Acquisition: "ts"}, synthetic(0)},
	} {
		run := lockstepShadows(t, row.opt, row.env, 800)
		if run.scored < 600 {
			t.Fatalf("%s: %+v", row.name, run)
		}
		t.Logf("%s: %d scored ticks, %d blocks revived (%d with K* refilled), %d filled afresh",
			row.name, run.scored, run.revivals, run.refills, run.misses)
		total.revivals += run.revivals
		total.refills += run.refills
	}
	if total.refills == 0 || total.refills == total.revivals {
		t.Fatalf("%d revivals, %d of them refilled K*: both kinds must occur", total.revivals, total.refills)
	}
}
