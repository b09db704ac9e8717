package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// shadowRun counts what TestShadowRevivesToFreshMovedFill exercised.
type shadowRun struct {
	covered, refilled, ownRefills, stale int
}

// sameAsFresh fails unless mu and sigma are, by ==, what a fresh moved fill
// of mv writes.
func sameAsFresh(t *testing.T, ctx string, m *Incremental, mv *Moves, mu, sigma []float64) {
	t.Helper()
	want, wantSigma := make([]float64, len(mu)), make([]float64, len(mu))
	m.PredictMovedBlockInto(&PredictScratch{}, &Block{}, want, wantSigma, mv)
	for c := range mu {
		if !sameFloat(mu[c], want[c]) || !sameFloat(sigma[c], wantSigma[c]) {
			t.Fatalf("%s: point %d of %d re-scored (%v, %v), a fresh moved fill (%v, %v)", ctx, c, len(mu), mu[c], sigma[c], want[c], wantSigma[c])
		}
	}
}

// TestShadowRevivesToFreshMovedFill shadows a moved block, revives it and
// re-scores it, and holds every result to a fresh moved fill by ==, over
// random grid windows: a revival whose projections cover the basis (no K*),
// re-scoring the revived shadow under new weights, a live row that leaves
// the projections short (K* refilled, from the ring's shadow and from the
// shadow in the slot), a block filled while α was solved (no basis: K*
// refilled), and a new epoch, under which a block is not shadowed and a
// shadow is not revived.
func TestShadowRevivesToFreshMovedFill(t *testing.T) {
	var run shadowRun
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, mv, err := gridWindow(rng, 8+rng.Intn(40), 1+rng.Intn(3), 2+rng.Intn(6), 4+rng.Intn(20))
		if err != nil {
			continue
		}
		n, q := m.n, mv.Len()
		if q == 0 {
			continue
		}
		ctx := func(step string) string { return fmt.Sprintf("seed %d, %s", seed, step) }
		mu, sigma := make([]float64, q), make([]float64, q)
		var ring, slot, solved Block
		s := &PredictScratch{}

		// Filled while α was solved: the shadow holds no projections.
		m.PredictMovedBlockInto(s, &solved, mu, sigma, mv)
		if !m.ShadowBlock(&ring, &solved) {
			t.Fatalf("%s: a current block was not shadowed", ctx("solved"))
		}
		if ok, refilled := m.ReviveMovedBlockInto(s, &slot, &ring, mu, sigma, mv); !ok || !refilled {
			t.Fatalf("%s: revived %v, refilled %v; want a refill (α was solved)", ctx("solved"), ok, refilled)
		}
		run.refilled++
		sameAsFresh(t, ctx("solved"), m, mv, mu, sigma)

		// Goals on the variance floor keep the kernel: same epoch, a basis.
		tg, fg := goalValues(rng, n, 0.05), goalValues(rng, n, 0.05)
		epoch := m.epoch
		if err := m.UpdateGoals(tg, fg, 0.7, 0.3); err != nil || m.epoch != epoch {
			continue
		}
		if ok, refilled := m.ReviveMovedBlockInto(s, &slot, &ring, mu, sigma, mv); !ok || !refilled {
			t.Fatalf("%s: revived %v, refilled %v; want a refill (a new basis)", ctx("basis"), ok, refilled)
		}
		run.refilled++
		sameAsFresh(t, ctx("basis"), m, mv, mu, sigma)
		if !m.ShadowBlock(&ring, &slot) {
			t.Fatalf("%s: a current block was not shadowed", ctx("basis"))
		}
		slot = Block{}
		if ok, refilled := m.ReviveMovedBlockInto(s, &slot, &ring, mu, sigma, mv); !ok || refilled {
			t.Fatalf("%s: revived %v, refilled %v; want projections that cover", ctx("covered"), ok, refilled)
		}
		run.covered++
		sameAsFresh(t, ctx("covered"), m, mv, mu, sigma)
		if len(slot.data) != tailLen(q) {
			t.Fatalf("%s: a covered revival holds %d values, a shadow's %d", ctx("covered"), len(slot.data), tailLen(q))
		}
		if err := m.UpdateGoals(tg, fg, 0.2, 0.8); err != nil || !m.RepredictBlockInto(&slot, mu, sigma) {
			t.Fatalf("%s: a re-weighted shadow did not re-score (%v)", ctx("reweighted"), err)
		}
		sameAsFresh(t, ctx("reweighted"), m, mv, mu, sigma)

		// A moved row goes live: the projections fall short.
		tg[rng.Intn(n)] += 0.01
		if err := m.UpdateGoals(tg, fg, 0.6, 0.4); err != nil || m.epoch != epoch {
			continue
		}
		if m.RepredictBlockInto(&slot, mu, sigma) {
			t.Fatalf("%s: a shadow re-scored without the live row's projection", ctx("live"))
		}
		if ok, refilled := m.ReviveMovedBlockInto(s, &slot, &slot, mu, sigma, mv); !ok || !refilled {
			t.Fatalf("%s: revived %v, refilled %v from the slot's own shadow", ctx("live"), ok, refilled)
		}
		run.ownRefills++
		sameAsFresh(t, ctx("live"), m, mv, mu, sigma)
		if ok, refilled := m.ReviveMovedBlockInto(s, &solved, &ring, mu, sigma, mv); !ok || !refilled {
			t.Fatalf("%s: revived %v, refilled %v from the ring's shadow", ctx("live ring"), ok, refilled)
		}
		run.refilled++
		sameAsFresh(t, ctx("live ring"), m, mv, mu, sigma)

		// A new epoch: nothing is shadowed or revived.
		x := append([]float64(nil), m.xbuf[0]...)
		x[0] = math.Mod(x[0]+0.37, 1)
		if err := m.Append(x, append(flatTargets(rng, m.xbuf[:n]), 0.5*0.01)); err != nil || m.epoch == epoch {
			continue
		}
		stale := ring
		if m.ShadowBlock(&ring, &slot) || len(ring.data) != len(stale.data) || ring.epoch != stale.epoch {
			t.Fatalf("%s: a stale block was shadowed", ctx("epoch"))
		}
		mv.Base = min(mv.Base, m.n-1)
		mu, sigma = make([]float64, q), make([]float64, q)
		if ok, _ := m.ReviveMovedBlockInto(s, &slot, &ring, mu, sigma, mv); ok {
			t.Fatalf("%s: a shadow of an older epoch was revived", ctx("epoch"))
		}
		run.stale++
	}
	if run.covered == 0 || run.refilled == 0 || run.ownRefills == 0 || run.stale == 0 {
		t.Fatalf("%+v: a case was never reached", run)
	}
	t.Logf("%d covered revivals, %d refills from the ring, %d from the slot's own shadow, %d stale shadows refused", run.covered, run.refilled, run.ownRefills, run.stale)
}
