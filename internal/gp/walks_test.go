package gp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// gridWalk moves x, on a grid of units steps, by steps random one-step
// moves between two coordinates of one group of group coordinates, legal or
// not, and returns the moved point and the coordinates the moves changed,
// each named the first time it moves, as the engine lists them.
func gridWalk(rng *rand.Rand, x []float64, group, units, steps int) ([]float64, []int32) {
	y := append([]float64(nil), x...)
	var moved []int32
	for range steps {
		lo := group * rng.Intn(len(x)/group)
		from, to := lo+rng.Intn(group), lo+rng.Intn(group)
		if from == to {
			continue
		}
		y[from] -= 1 / float64(units)
		y[to] += 1 / float64(units)
		for _, k := range [2]int32{int32(from), int32(to)} {
			if !slices.Contains(moved, k) {
				moved = append(moved, k)
			}
		}
	}
	return y, moved
}

// walkPanel builds a model of n inputs on a units grid in dimension
// groups·group and a pool of extra random points followed by count walks of
// steps moves from a random input. About a third of the walks are also
// written over an input, so the pool holds walks whose distance to an input
// is exactly 0 and whose update rounds around it; it returns how many walks
// lie on an input.
func walkPanel(rng *rand.Rand, n, groups, group, units, extra, count, steps int) (*Incremental, [][]float64, Walks, int, error) {
	dim := groups * group
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for k := range xs[i] {
			xs[i][k] = float64(rng.Intn(units+1)) / float64(units)
		}
	}
	base := rng.Intn(n)
	pool, wk := randomInputs(rng, extra, dim), Walks{Base: base}
	for range count {
		y, moved := gridWalk(rng, xs[base], group, units, steps)
		if i := rng.Intn(n); i != base && rng.Intn(3) == 0 {
			xs[i] = y
		}
		pool = append(pool, y)
		wk.Moved = append(append(wk.Moved, moved...), -1)
	}
	coincide := 0
	for _, y := range pool[extra:] {
		if slices.ContainsFunc(xs, func(x []float64) bool { return slices.Equal(x, y) }) {
			coincide++
		}
	}
	m := NewIncremental(Options{Noise: 1e-3})
	return m, pool, wk, coincide, m.Reset(xs, flatTargets(rng, xs))
}

// checkWalks holds PredictMeansInto with the walks described, then
// PredictSigmasInto, to the dense fill of the same points: the other points
// to the bit, the walks within movedBound and never NaN, every σ under
// SigmaCeiling, and below walkDim everything to the bit. It returns the
// walk columns' μ and σ.
func checkWalks(t *testing.T, m *Incremental, pool [][]float64, wk Walks) (mu, sigma []float64) {
	t.Helper()
	q := len(pool)
	var s PredictScratch
	mu, sigma = make([]float64, q), make([]float64, q)
	m.PredictMeansInto(&s, mu, pointsOf(pool), wk)
	ceil := make([]float64, q)
	for c := range ceil {
		ceil[c] = m.SigmaCeiling(&s, c)
	}
	m.PredictSigmasInto(&s, sigma)
	wantMu, wantSigma := make([]float64, q), make([]float64, q)
	m.PredictBatchInto(&PredictScratch{}, wantMu, wantSigma, pool)
	kxx, sumAlpha := m.kernel.Variance, 0.0
	for _, a := range m.alpha {
		sumAlpha += math.Abs(a)
	}
	from := q - wk.Len()
	for c := range mu {
		same := sameFloat(mu[c], wantMu[c]) && sameFloat(sigma[c], wantSigma[c])
		near := !math.IsNaN(mu[c]) && !math.IsNaN(sigma[c]) &&
			withinMoved(mu[c], wantMu[c], math.Abs(m.mean)+kxx*sumAlpha) && withinMoved(sigma[c], wantSigma[c], math.Sqrt(kxx))
		if c < from || m.dim < walkDim {
			near = same
		}
		if !near || !(sigma[c] <= ceil[c]) {
			t.Fatalf("point %d of %d (walks from %d, dimension %d): (%v, %v) under ceiling %v, dense (%v, %v)",
				c, q, from, m.dim, mu[c], sigma[c], ceil[c], wantMu[c], wantSigma[c])
		}
	}
	return mu[from:], sigma[from:]
}

// FuzzWalks holds the walk update to the dense fill on random grid windows
// (checkWalks), with the walks laid out after 0 to 70 other points, then
// again after another number of them: a walk scores to the same bits
// wherever it lies in the pool and its panels.
func FuzzWalks(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(2), uint8(24), uint8(24), uint8(16), uint8(16))
	f.Add(int64(2), uint8(16), uint8(2), uint8(22), uint8(8), uint8(31), uint8(5))
	f.Add(int64(3), uint8(40), uint8(1), uint8(30), uint8(4), uint8(40), uint8(0))
	f.Add(int64(4), uint8(9), uint8(3), uint8(5), uint8(10), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, groups, group, units, count, extra uint8) {
		rng := rand.New(rand.NewSource(seed))
		m, pool, wk, _, err := walkPanel(rng, 1+int(n)%64, 1+int(groups)%3, 2+int(group)%30, 1+int(units)%48, int(extra)%71, int(count)%50, 1+rng.Intn(4))
		if err != nil {
			t.Skip(err) // a window no jitter factors; nothing to score
		}
		mu, sigma := checkWalks(t, m, pool, wk)
		walks := pool[len(pool)-wk.Len():]
		mu2, sigma2 := checkWalks(t, m, append(randomInputs(rng, rng.Intn(40), m.dim), walks...), wk)
		for c := range mu {
			if !sameFloat(mu[c], mu2[c]) || !sameFloat(sigma[c], sigma2[c]) {
				t.Fatalf("walk %d scores (%v, %v) at one position, (%v, %v) at another", c, mu[c], sigma[c], mu2[c], sigma2[c])
			}
		}
	})
}

// TestWalksMatchDense runs checkWalks over 300 random windows of up to 64
// inputs in dimensions 4 to 90, with 0 to 70 other points before up to 48
// walks, and requires walks at an input's own point: their update rounds
// around a distance of 0, which the clamp holds at 0.
func TestWalksMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	walks, coincide, below := 0, 0, 0
	for range 300 {
		groups, group := 1+rng.Intn(3), 2+rng.Intn(29)
		m, pool, wk, c, err := walkPanel(rng, 1+rng.Intn(64), groups, group, 1+rng.Intn(48), rng.Intn(71), rng.Intn(49), 1+rng.Intn(4))
		if err != nil {
			continue
		}
		checkWalks(t, m, pool, wk)
		if m.dim < walkDim {
			below++
			continue
		}
		walks, coincide = walks+wk.Len(), coincide+c
	}
	if walks == 0 || coincide == 0 || below == 0 {
		t.Fatalf("%d walks updated, %d of them at an input, %d windows below walkDim: a case was not reached", walks, coincide, below)
	}
	t.Logf("%d walks updated, %d of them at an input; %d windows below walkDim", walks, coincide, below)
}
