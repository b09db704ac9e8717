package gp_test

import (
	"math"
	"math/rand"
	"testing"

	"satori/internal/bo"
	"satori/internal/gp"
	"satori/internal/linalg"
)

// TestMovedBlockClampsCoincidingNeighbours scores the one-unit
// neighbourhood of a configuration whose every neighbour is also a window
// input, on grids of 4 to 40 units. A neighbour's squared distance to the
// input it coincides with is 0, but the moved fill sums it as a stored
// distance plus two table entries that should cancel it, and some of those
// sums round below zero — the test counts them and requires some. Each
// must still come out as a finite μ and σ that bo.Argmax can pick: without
// the clamp the Matérn transform's √ turns it into a NaN, which Argmax
// silently drops.
func TestMovedBlockClampsCoincidingNeighbours(t *testing.T) {
	const jobs, groups = 4, 2
	rng := rand.New(rand.NewSource(5))
	negatives, checked := 0, 0
	for units := jobs; units <= 40; units++ {
		// A random composition of units among the jobs, per group.
		alloc := make([]int, groups*jobs)
		for g := 0; g < groups; g++ {
			row := alloc[g*jobs : g*jobs+jobs]
			for j := range row {
				row[j] = 1
			}
			for u := jobs; u < units; u++ {
				row[rng.Intn(jobs)]++
			}
		}
		encode := func(a []int) []float64 {
			x := make([]float64, len(a))
			for k, u := range a {
				x[k] = float64(u) / float64(units)
			}
			return x
		}
		// The window: the configuration, then each of its neighbours in
		// the moves' order.
		x0 := encode(alloc)
		xs := [][]float64{x0}
		mv := gp.Moves{Base: 0, Group: jobs, Give: make([]float64, len(alloc)), Take: make([]float64, len(alloc))}
		for k, u := range alloc {
			mv.Give[k], mv.Take[k] = math.NaN(), float64(u+1)/float64(units)
			if u > 1 {
				mv.Give[k] = float64(u-1) / float64(units)
			}
		}
		for a, u := range alloc {
			if u <= 1 {
				continue
			}
			lo := a - a%jobs
			for b := lo; b < lo+jobs; b++ {
				if b == a {
					continue
				}
				moved := append([]int(nil), alloc...)
				moved[a]--
				moved[b]++
				x := encode(moved)
				xs = append(xs, x)
				// The moved fill's sum for this neighbour against the input
				// it coincides with, before the clamp.
				d := func(k int, v float64) float64 { return (x[k]-v)*(x[k]-v) - (x[k]-x0[k])*(x[k]-x0[k]) }
				if linalg.SquaredDistance(x, x0)+d(a, mv.Give[a])+d(b, mv.Take[b]) < 0 {
					negatives++
				}
			}
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = 0.001 * math.Sin(3*x[0]+x[jobs])
		}
		m := gp.NewIncremental(gp.Options{Noise: 1e-3})
		if err := m.Reset(xs, ys); err != nil {
			t.Fatalf("%d units: %v", units, err)
		}
		q := mv.Len()
		if q != len(xs)-1 {
			t.Fatalf("%d units: %d moves for %d neighbours", units, q, len(xs)-1)
		}
		mu, sigma := make([]float64, q), make([]float64, q)
		m.PredictMovedBlockInto(&gp.PredictScratch{}, &gp.Block{}, mu, sigma, &mv)
		for c := range mu {
			idx, _, err := bo.Argmax(bo.EI{}, -1, mu[c:c+1], sigma[c:c+1])
			if math.IsNaN(mu[c]) || math.IsInf(mu[c], 0) || math.IsNaN(sigma[c]) || math.IsInf(sigma[c], 0) || idx != 0 || err != nil {
				t.Fatalf("%d units: neighbour %d, an input of the window, scored (%v, %v); Argmax picked %d (%v)", units, c, mu[c], sigma[c], idx, err)
			}
			checked++
		}
	}
	if negatives == 0 {
		t.Fatalf("no coinciding neighbour of %d summed below zero: the clamp was not exercised", checked)
	}
	t.Logf("%d coinciding neighbours scored, %d of them summed below zero before the clamp", checked, negatives)
}
