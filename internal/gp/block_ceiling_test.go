package gp

import (
	"fmt"
	"math/rand"
	"testing"
)

// ceilingRun counts what FuzzBlockMeanCeiling held a ceiling against.
type ceilingRun struct {
	dense, moved, revived int // ceilings checked, by how the block was filled
	negative, live        int // of those, under a negative coefficient, and with a live row
	refused               int // blocks whose ceiling was refused (stale, or short of the basis)
	attained              int // ceilings some point's μ equals: the bound is tight, no margin hides a miss
}

// FuzzBlockMeanCeiling holds BlockCeiling to what RepredictBlockInto
// writes: on random grid windows under swinging weights, moved rows (live
// rows, so negative coefficients) and new epochs, every re-scored mean of a
// dense, a moved and a revived block — one whose K* was handed back — is
// <= the ceiling's mean and every σ <= its σ, both compared exactly; and
// the ceiling is given exactly when the block re-scores from its
// projections.
func FuzzBlockMeanCeiling(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint8(4), uint8(60))
	f.Add(int64(2), uint8(40), uint8(3), uint8(5), uint8(90))
	f.Add(int64(3), uint8(6), uint8(1), uint8(3), uint8(30))
	f.Add(int64(4), uint8(60), uint8(2), uint8(7), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, n, groups, group, steps uint8) {
		run, ok := fuzzBlockCeiling(t, seed, 4+int(n)%60, 1+int(groups)%3, 2+int(group)%6, 1+int(steps)%150)
		if !ok {
			t.Skip("a window no jitter factors, or no moves")
		}
		t.Logf("%+v", run)
	})
}

// TestBlockCeilingCoversItsCases runs FuzzBlockMeanCeiling's generator over
// more seeds than the fuzz corpus and requires every case to occur.
func TestBlockCeilingCoversItsCases(t *testing.T) {
	var total ceilingRun
	for seed := int64(1); seed <= 30; seed++ {
		r, _ := fuzzBlockCeiling(t, seed, 8+int(seed)%40, 1+int(seed)%3, 2+int(seed)%5, 80)
		total.dense, total.moved, total.revived = total.dense+r.dense, total.moved+r.moved, total.revived+r.revived
		total.negative, total.live, total.refused = total.negative+r.negative, total.live+r.live, total.refused+r.refused
		total.attained += r.attained
	}
	if total.dense == 0 || total.moved == 0 || total.revived == 0 || total.negative == 0 || total.live == 0 || total.refused == 0 || total.attained == 0 {
		t.Fatalf("%+v: a case was never reached", total)
	}
	t.Logf("%+v", total)
}

// fuzzBlockCeiling is one FuzzBlockMeanCeiling input: a window of n grid
// points of groups·group coordinates and one neighbourhood of moves, scored
// three ways, through steps goal updates. It reports false, having checked
// nothing, when the window does not factor or the neighbourhood is empty.
func fuzzBlockCeiling(t *testing.T, seed int64, n, groups, group, steps int) (run ceilingRun, ok bool) {
	rng := rand.New(rand.NewSource(seed))
	m, mv, err := gridWindow(rng, n, groups, group, 4+rng.Intn(12))
	if err != nil || mv.Len() == 0 {
		return run, false
	}
	q := mv.Len()
	var pts Points
	pts.Load(movedPoints(m, mv))
	tg, fg := goalValues(rng, m.n, 0.05), goalValues(rng, m.n, 0.05)
	s := &PredictScratch{}
	var blocks [3]Block // dense, moved, revived
	fill := func(kind int, mu, sigma []float64) {
		switch kind {
		case 0:
			m.PredictBlockInto(s, &blocks[0], mu, sigma, &pts)
		case 1:
			m.PredictMovedBlockInto(s, &blocks[1], mu, sigma, mv)
		default:
			m.PredictMovedBlockInto(s, &blocks[2], mu, sigma, mv)
			s.Shed(&blocks[2])
			if ok, _ := m.ReviveMovedBlockInto(s, &blocks[2], mu, sigma, mv); !ok {
				t.Fatalf("seed %d: a current block without K* was not revived", seed)
			}
		}
	}
	// rescore re-scores a block from what it kept: K*, or the revived
	// block's tail alone, which covers the basis whenever a ceiling is given.
	rescore := func(kind int, mu, sigma []float64) bool {
		if kind < 2 {
			return m.RepredictBlockInto(&blocks[kind], mu, sigma)
		}
		ok, refilled := m.ReviveMovedBlockInto(s, &blocks[2], mu, sigma, mv)
		return ok && !refilled
	}
	mu, sigma := make([]float64, q), make([]float64, q)
	wT := rng.Float64()
	for step := 0; step < steps; step++ {
		ctx := fmt.Sprintf("seed %d step %d", seed, step)
		switch k := rng.Intn(12); {
		case k == 0 && m.n < 80:
			x := append([]float64(nil), m.xbuf[rng.Intn(m.n)]...)
			x[rng.Intn(len(x))] = float64(rng.Intn(5)) / 4
			tg, fg = append(tg, goalValues(rng, 1, 0.05)...), append(fg, goalValues(rng, 1, 0.05)...)
			if err := m.Append(x, weighted(tg, fg, wT, 1-wT)); err != nil {
				return run, true // the model is gone; what was checked stands
			}
		case k <= 4:
			for _, i := range rng.Perm(m.n)[:1+rng.Intn(min(3, m.n))] {
				tg[i], fg[i] = goalValues(rng, 1, 0.05)[0], goalValues(rng, 1, 0.05)[0]
			}
		}
		wT = min(1.5, max(-0.5, wT+0.2*rng.NormFloat64()))
		if err := m.UpdateGoals(tg, fg, wT, 1-wT); err != nil {
			t.Fatalf("%s: UpdateGoals: %v", ctx, err)
		}
		for kind := range blocks {
			b := &blocks[kind]
			muMax, sigmaMax, ok := m.BlockCeiling(b, q)
			if want := b.epoch == m.epoch && m.covers(b, q); ok != want {
				t.Fatalf("%s: block %d: ceiling given %v, re-scores from its projections %v", ctx, kind, ok, want)
			}
			if !ok {
				run.refused++
				fill(kind, mu, sigma)
				if muMax, sigmaMax, ok = m.BlockCeiling(b, q); !ok {
					t.Fatalf("%s: block %d: no ceiling after a fill under a goal basis", ctx, kind)
				}
			} else if !rescore(kind, mu, sigma) {
				t.Fatalf("%s: block %d: a ceiling was given, yet the block did not re-score", ctx, kind)
			}
			attained := false
			for c := range mu {
				if !(mu[c] <= muMax) || !(sigma[c] <= sigmaMax) {
					t.Fatalf("%s: block %d point %d of %d: (μ %v, σ %v) above the ceiling (%v, %v)", ctx, kind, c, q, mu[c], sigma[c], muMax, sigmaMax)
				}
				attained = attained || mu[c] == muMax
			}
			run.attained += btoi(attained)
			run.dense, run.moved, run.revived = run.dense+btoi(kind == 0), run.moved+btoi(kind == 1), run.revived+btoi(kind == 2)
			negative := false
			for _, c := range m.basis[:m.active()] {
				negative = negative || c < 0
			}
			run.negative += btoi(negative)
			run.live += btoi(m.nlive > 0)
		}
	}
	return run, true
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
