package gp

import (
	"math"
	"math/rand"
	"testing"
)

// movedBound is how far the moved fill may sit from the dense fill of the
// same points, relative to the larger value or to the scale of the sum
// that produced it: μ's sum is mean + Σ k*_i·α_i, whose rounding is
// relative to |mean| + k(x, x)·Σ|α_i|, and σ's is relative to √k(x, x).
const movedBound = 1e-12

func withinMoved(got, want, scale float64) bool {
	return math.Abs(got-want) <= movedBound*max(math.Abs(got), math.Abs(want), scale)
}

// movedPoints materialises the points mv describes, in its order.
func movedPoints(m *Incremental, mv *Moves) [][]float64 {
	var pts [][]float64
	for a, g := range mv.Give {
		if math.IsNaN(g) {
			continue
		}
		lo := a - a%mv.Group
		for b := lo; b < lo+mv.Group; b++ {
			if b == a {
				continue
			}
			x := append([]float64(nil), m.xbuf[mv.Base]...)
			x[a], x[b] = g, mv.Take[b]
			pts = append(pts, x)
		}
	}
	return pts
}

// flatTargets draws targets whose variance sits on the heuristic's floor,
// so that new ones re-solve the model without moving its kernel.
func flatTargets(rng *rand.Rand, xs [][]float64) []float64 {
	ys := randomTargets(rng, xs)
	for i := range ys {
		ys[i] *= 0.01
	}
	return ys
}

// gridWindow builds a model of n random inputs of groups·group coordinates
// on a grid of units steps, and moves from a random input: a coordinate
// gives with probability 2/3, and every value moved to is on the grid.
func gridWindow(rng *rand.Rand, n, groups, group, units int) (*Incremental, *Moves, error) {
	dim := groups * group
	grid := func() float64 { return float64(rng.Intn(units+1)) / float64(units) }
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for k := range xs[i] {
			xs[i][k] = grid()
		}
	}
	m := NewIncremental(Options{Noise: 1e-3})
	if err := m.Reset(xs, flatTargets(rng, xs)); err != nil {
		return nil, nil, err
	}
	mv := &Moves{Base: rng.Intn(n), Group: group, Give: make([]float64, dim), Take: make([]float64, dim)}
	for k := range mv.Give {
		mv.Give[k], mv.Take[k] = grid(), grid()
		if rng.Intn(3) == 0 {
			mv.Give[k] = math.NaN()
		}
	}
	return m, mv, nil
}

// FuzzMovedBlock holds PredictMovedBlockInto to PredictBlockInto on the
// materialised points within movedBound, on random windows on a units grid,
// where moved points often coincide with an input or with each other: no
// NaN, and after a target-only update the block re-scores to the bits of a
// fresh moved fill.
func FuzzMovedBlock(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(3), uint8(4), uint8(8))
	f.Add(int64(2), uint8(64), uint8(3), uint8(24), uint8(32))
	f.Add(int64(3), uint8(5), uint8(1), uint8(2), uint8(1))
	f.Add(int64(4), uint8(40), uint8(2), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, groups, group, units uint8) {
		rng := rand.New(rand.NewSource(seed))
		m, mv, err := gridWindow(rng, 1+int(n)%70, 1+int(groups)%4, 1+int(group)%24, 1+int(units)%48)
		if err != nil {
			t.Skip(err) // a window no jitter factors; nothing to score
		}
		pts := movedPoints(m, mv)
		q := len(pts)
		mu, sigma := make([]float64, q), make([]float64, q)
		wantMu, wantSigma := make([]float64, q), make([]float64, q)
		var moved, dense Block
		m.PredictMovedBlockInto(&PredictScratch{}, &moved, mu, sigma, mv)
		m.PredictBlockInto(&PredictScratch{}, &dense, wantMu, wantSigma, pointsOf(pts))
		kxx, sumAlpha := m.kernel.Variance, 0.0
		for _, a := range m.alpha {
			sumAlpha += math.Abs(a)
		}
		for c := range mu {
			if math.IsNaN(mu[c]) || math.IsNaN(sigma[c]) ||
				!withinMoved(mu[c], wantMu[c], math.Abs(m.mean)+kxx*sumAlpha) || !withinMoved(sigma[c], wantSigma[c], math.Sqrt(kxx)) {
				t.Fatalf("point %d of %d (%v): moved fill (%v, %v), dense (%v, %v)", c, q, pts[c], mu[c], sigma[c], wantMu[c], wantSigma[c])
			}
		}
		if err := m.UpdateTargets(flatTargets(rng, m.xbuf[:m.n])); err != nil {
			t.Fatal(err)
		}
		m.PredictMovedBlockInto(&PredictScratch{}, &Block{}, wantMu, wantSigma, mv)
		if !m.RepredictBlockInto(&moved, mu, sigma) {
			t.Fatal("a target-only update left the moved block stale")
		}
		for c := range mu {
			if !sameFloat(mu[c], wantMu[c]) || !sameFloat(sigma[c], wantSigma[c]) {
				t.Fatalf("point %d of %d: re-scored (%v, %v), fresh moved fill (%v, %v)", c, q, mu[c], sigma[c], wantMu[c], wantSigma[c])
			}
		}
	})
}
