package linalg_test

import (
	"math"
	"math/rand"
	"testing"

	"satori/internal/gp"
	"satori/internal/linalg"
)

// TestMatern52RowMatchesEval: the transform in use turns each squared
// distance into the bits gp.Matern52.Eval returns for the same pair of
// points — the contract that lets the batched fill replace Eval. Where the
// assembly runs, TestMaternTransformMatchesPortable holds it to the Go loop,
// so this covers the portable copy on every architecture.
func TestMatern52RowMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const dim, q = 15, 37
	for _, ls := range []float64{1e-3, 0.005, 0.3, 1, 2.5, 60, 1e3} {
		k := gp.Matern52{LengthScale: ls, Variance: 0.1 + 2*rng.Float64()}
		x := make([]float64, dim)
		for d := range x {
			x[d] = float64(rng.Intn(12)) / 11
		}
		points := make([][]float64, q)
		row := make([]float64, q)
		for c := range points {
			points[c] = make([]float64, dim)
			for d := range points[c] {
				// Lattice coordinates, so distances repeat and hit 0.
				points[c][d] = float64(rng.Intn(12)) / 11
			}
			if c%5 == 0 {
				copy(points[c], x)
			}
			row[c] = linalg.SquaredDistance(points[c], x)
		}
		linalg.Matern52Row(row, k.LengthScale, k.Variance)
		for c, p := range points {
			if want := k.Eval(p, x); math.Float64bits(row[c]) != math.Float64bits(want) {
				t.Fatalf("ls=%g column %d: Matern52Row %v (%#x), Eval %v (%#x)",
					ls, c, row[c], math.Float64bits(row[c]), want, math.Float64bits(want))
			}
		}
	}
}
