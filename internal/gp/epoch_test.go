package gp

import (
	"math"
	"math/rand"
	"testing"
)

// closedFormBound bounds the gap between the closed-form window mean
// y_i − jitter·α_i and the kernel sum mean + Σ_j k(x_i, x_j)·α_j, relative
// to meanScale: the two differ by the solve's residual.
const closedFormBound = 1e-12

// meanScale is |mean| + Σ_j |k(x, x_j)·α_j|, the magnitude of the terms
// PredictMean sums at x.
func meanScale(m *Incremental, x []float64) float64 {
	s := math.Abs(m.mean)
	for j, xj := range m.xbuf[:m.n] {
		s += math.Abs(m.kernel.Eval(x, xj) * m.alpha[j])
	}
	return s
}

// TestKernelEpochReuseProperty drives seeded random operation sequences
// through the incremental model — Reset, Append, duplicate-input Append
// (the ErrIndefinite refit fallback), UpdateTargets with targets on either
// side of the 0.01 variance floor — and after every operation holds each
// thing the model carries across target-only updates against its
// from-scratch definition, with ==:
//
//   - a Block re-scored (hit) or re-filled (miss) equals a stateless
//     PredictBatchInto over the same points on fresh scratch,
//   - PredictMeansAtInto's entry i, y_i − jitter·α_i, agrees with
//     PredictMean(x_i) within closedFormBound of the terms it sums, in a
//     buffer reused while Reset shrinks (evicts) and Append grows the
//     window,
//   - the cached length scale equals MedianLengthScale of the inputs,
//   - the kernel epoch moved exactly when Refits+Extends did, and a block
//     is a hit exactly when the epoch did not move since it was filled.
func TestKernelEpochReuseProperty(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"heuristic", Options{}},
		// A pinned kernel always takes the Extend path on Append, and with
		// next to no noise an exact duplicate input cancels its pivot.
		{"fixed", Options{Kernel: Matern52{LengthScale: 0.7, Variance: 1.0}, Noise: 1e-16}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var hits, misses, fallbacks, floorRefits, extends int
			worst := 0.0           // the largest closed-form window-mean gap
			var rowMeans []float64 // reused across windows that grow and shrink
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				dim := 1 + rng.Intn(9)
				m := NewIncremental(v.opt)
				var xs [][]float64
				// Two panels and a partial one, so the panel cut is exercised.
				pts := randomInputs(rng, 2*panelWidth+7, dim)
				var blk Block
				var filledAt uint64
				mu, sigma := make([]float64, len(pts)), make([]float64, len(pts))
				wantMu, wantSigma := make([]float64, len(pts)), make([]float64, len(pts))
				// targets draws targets for xs; flat ones keep the variance
				// heuristic on its floor, wide ones lift it off.
				targets := func(flat bool) []float64 {
					ys := randomTargets(rng, xs)
					if flat {
						for i := range ys {
							ys[i] *= 0.01
						}
					}
					return ys
				}
				flat := true
				for op := 0; op < 120; op++ {
					before, epochBefore := m.Stats(), m.epoch
					var err error
					switch k := rng.Intn(10); {
					case len(xs) == 0 || k == 0:
						xs = randomInputs(rng, 2+rng.Intn(20), dim)
						err = m.Reset(xs, targets(flat))
					case k <= 2 && len(xs) < 40:
						x := randomInputs(rng, 1, dim)[0]
						xs = append(xs, x)
						err = m.Append(x, targets(flat))
					case k == 3 && len(xs) < 40:
						x := append([]float64(nil), xs[rng.Intn(len(xs))]...)
						xs = append(xs, x)
						err = m.Append(x, targets(flat))
						if st := m.Stats(); st.Extends == before.Extends && st.Refits > before.Refits {
							fallbacks++
						}
					case k == 4:
						flat = !flat
						err = m.UpdateTargets(targets(flat))
						if m.Stats().Refits > before.Refits {
							floorRefits++
						}
					default:
						err = m.UpdateTargets(targets(flat))
					}
					if err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}

					after := m.Stats()
					extends += after.Extends - before.Extends
					moved := after.Refits+after.Extends != before.Refits+before.Extends
					if (m.epoch != epochBefore) != moved || m.epoch != uint64(after.Refits+after.Extends) {
						t.Fatalf("seed %d op %d: epoch %d -> %d but refits+extends %d -> %d", seed, op,
							epochBefore, m.epoch, before.Refits+before.Extends, after.Refits+after.Extends)
					}
					if v.opt.Kernel == (Matern52{}) && m.kernel.LengthScale != MedianLengthScale(xs) {
						t.Fatalf("seed %d op %d: cached length scale %v, inputs say %v", seed, op, m.kernel.LengthScale, MedianLengthScale(xs))
					}
					rowMeans = m.PredictMeansAtInto(rowMeans)
					if len(rowMeans) != len(xs) {
						t.Fatalf("seed %d op %d: PredictMeansAtInto gave %d means for %d inputs", seed, op, len(rowMeans), len(xs))
					}
					for i, x := range xs {
						got, want := rowMeans[i], m.PredictMean(x)
						gap := math.Abs(got-want) / meanScale(m, x)
						if !(gap <= closedFormBound) {
							t.Fatalf("seed %d op %d: PredictMeansAtInto [%d] = %v, PredictMean = %v: %.3g of the sum's scale", seed, op, i, got, want, gap)
						}
						worst = max(worst, gap)
					}

					hit := m.RepredictBlockInto(&blk, mu, sigma)
					if hit != (blk.epoch != 0 && filledAt == m.epoch) {
						t.Fatalf("seed %d op %d: block hit = %v, filled at epoch %d, model at %d", seed, op, hit, filledAt, m.epoch)
					}
					if hit {
						hits++
					} else {
						misses++
						m.PredictBlockInto(&PredictScratch{}, &blk, mu, sigma, pointsOf(pts))
						filledAt = m.epoch
					}
					m.PredictBatchInto(&PredictScratch{}, wantMu, wantSigma, pts)
					for c := range pts {
						if mu[c] != wantMu[c] || sigma[c] != wantSigma[c] {
							t.Fatalf("seed %d op %d (hit=%v): point %d: block (%v, %v) != stateless (%v, %v)",
								seed, op, hit, c, mu[c], sigma[c], wantMu[c], wantSigma[c])
						}
					}
				}
			}
			if hits == 0 || misses == 0 || floorRefits == 0 && v.opt.Kernel == (Matern52{}) {
				t.Fatalf("paths not exercised: %d hits, %d misses, %d floor-crossing refits", hits, misses, floorRefits)
			}
			if v.opt.Kernel != (Matern52{}) && (fallbacks == 0 || extends == 0) {
				t.Fatalf("pinned kernel: %d ErrIndefinite fallbacks, %d extends; want both", fallbacks, extends)
			}
			t.Logf("%d hits, %d misses, %d extends, %d duplicate-append fallbacks, %d floor-crossing refits; window means within %.2g of PredictMean's scale",
				hits, misses, extends, fallbacks, floorRefits, worst)
		})
	}
}

// TestRepredictBlockRejectsOtherSizes pins that a block only re-scores into
// buffers of the size it was filled for, and that the zero Block is stale.
func TestRepredictBlockRejectsOtherSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := randomInputs(rng, 10, 3)
	m := NewIncremental(Options{})
	if err := m.Reset(xs, randomTargets(rng, xs)); err != nil {
		t.Fatal(err)
	}
	var blk Block
	mu, sigma := make([]float64, 5), make([]float64, 5)
	if m.RepredictBlockInto(&blk, nil, nil) {
		t.Fatal("zero Block reported fresh")
	}
	m.PredictBlockInto(&PredictScratch{}, &blk, mu, sigma, pointsOf(randomInputs(rng, 5, 3)))
	if m.RepredictBlockInto(&blk, mu[:4], sigma[:4]) {
		t.Fatal("block filled for 5 points re-scored into 4")
	}
	if !m.RepredictBlockInto(&blk, mu, sigma) {
		t.Fatal("fresh block reported stale")
	}
}
