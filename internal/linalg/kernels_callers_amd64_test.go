//go:build amd64 && !amd64.v3

package linalg_test

import (
	"fmt"
	"math/rand"
	"testing"

	"satori/internal/gp"
	"satori/internal/linalg"
)

// Package gp's routines built on the column kernels, each run twice — under
// the AVX kernels init chose and under the portable loops — and compared
// with ==: the sizes put the window on both sides of 8 rows and the pool
// on both sides of the 16- and 4-column blocks and of
// gp's 32-point panel. They live here because only a test of package linalg
// can reach the unexported switch.

var (
	callerWindows = []int{1, 7, 8, 9, 17, 64}
	callerPools   = []int{1, 3, 4, 5, 31, 32, 33, 140}
)

// underBoth returns what compute yields under init's kernels and under the
// portable ones.
func underBoth(compute func() []float64) (avx, portable []float64) {
	avx = compute()
	linalg.WithPortableKernels(func() { portable = compute() })
	return avx, portable
}

func requireSame(t *testing.T, what string, avx, portable []float64) {
	t.Helper()
	if len(avx) != len(portable) {
		t.Fatalf("%s: %d values under AVX, %d portable", what, len(avx), len(portable))
	}
	for i := range avx {
		if avx[i] != portable[i] {
			t.Fatalf("%s: value %d is %v under AVX, %v portable", what, i, avx[i], portable[i])
		}
	}
}

func TestGPScoringSameUnderBothKernels(t *testing.T) {
	linalg.RequireAVX(t)
	const dim = 15
	rng := rand.New(rand.NewSource(4))
	inputs := func(n int) [][]float64 {
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for d := range xs[i] {
				xs[i][d] = rng.Float64()
			}
		}
		return xs
	}
	targets := func(n int) []float64 {
		ys := make([]float64, n)
		for i := range ys {
			ys[i] = rng.Float64()
		}
		return ys
	}
	// A pinned kernel keeps the kernel epoch — hence the block — across
	// UpdateTargets; the heuristic one may move its variance and drop the
	// block, which both sets must then agree on. Posterior takes the same
	// fill as the pool. At length scale 0.0055 the exponent argument
	// −√5r of unit-cube distances in 15 dimensions straddles −700 (about a
	// quarter of the lanes fall past it), so the transform's assembly stops
	// mid-row and the Go loop finishes it.
	models := []struct {
		name   string
		kernel gp.Matern52
	}{
		{"pinned", gp.Matern52{LengthScale: 0.9, Variance: 0.5}},
		{"heuristic", gp.Matern52{}},
		{"past -700", gp.Matern52{LengthScale: 0.0055, Variance: 0.5}},
	}
	for _, n := range callerWindows {
		xs, ys, ys2 := inputs(n), targets(n), targets(n)
		for _, q := range callerPools {
			pool := inputs(q)
			for _, model := range models {
				requireSameScoring(t, fmt.Sprintf("%s n=%d q=%d", model.name, n, q), model.kernel, xs, ys, ys2, pool)
			}
		}
	}
}

// requireSameScoring builds one model over (xs, ys) and requires its Gram
// matrix, built by Reset and by Append (read through the window means), and
// its pool scores from PredictBatchInto, PredictMeansInto → SigmaCeiling →
// PredictSigmasInto, PredictBlockInto → UpdateTargets(ys2) →
// RepredictBlockInto and Posterior to be == under both kernel sets.
func requireSameScoring(t *testing.T, ctx string, kernel gp.Matern52, xs [][]float64, ys, ys2 []float64, pool [][]float64) {
	t.Helper()
	q := len(pool)
	var m *gp.Incremental
	avx, portable := underBoth(func() []float64 {
		m = gp.NewIncremental(gp.Options{Kernel: kernel})
		err := m.Reset(xs[:max(1, len(xs)-1)], ys[:max(1, len(xs)-1)])
		if err == nil && len(xs) > 1 {
			err = m.Append(xs[len(xs)-1], ys)
		}
		if err != nil {
			t.Fatal(err)
		}
		return m.PredictMeansAtInto(nil)
	})
	requireSame(t, "Reset/Append "+ctx, avx, portable)
	var pts gp.Points
	pts.Load(pool)
	var s gp.PredictScratch
	mu, sigma := make([]float64, q), make([]float64, q)
	avx, portable = underBoth(func() []float64 {
		m.PredictBatchInto(&s, mu, sigma, pool)
		return append(append([]float64(nil), mu...), sigma...)
	})
	requireSame(t, "PredictBatchInto "+ctx, avx, portable)

	// The split halves, and the σ ceilings read off the filled panel.
	avx, portable = underBoth(func() []float64 {
		m.PredictMeansInto(&s, mu, &pts, gp.Walks{})
		out := append([]float64(nil), mu...)
		for c := range pool {
			out = append(out, m.SigmaCeiling(&s, c))
		}
		m.PredictSigmasInto(&s, sigma)
		return append(out, sigma...)
	})
	requireSame(t, "PredictMeansInto/SigmaCeiling/PredictSigmasInto "+ctx, avx, portable)

	avx, portable = underBoth(func() []float64 {
		if err := m.UpdateTargets(ys); err != nil {
			t.Fatal(err)
		}
		var blk gp.Block
		m.PredictBlockInto(&s, &blk, mu, sigma, &pts)
		out := append(append([]float64(nil), mu...), sigma...)
		if err := m.UpdateTargets(ys2); err != nil {
			t.Fatal(err)
		}
		if !m.RepredictBlockInto(&blk, mu, sigma) {
			if kernel != (gp.Matern52{}) {
				t.Fatalf("%s: block went stale across a target-only update", ctx)
			}
			return append(out, -1) // the heuristic moved: no re-predict
		}
		return append(append(out, mu...), sigma...)
	})
	requireSame(t, "PredictBlockInto/RepredictBlockInto "+ctx, avx, portable)

	avx, portable = underBoth(func() []float64 {
		pmu, cov := m.Posterior(&pts)
		return append(pmu, cov.Data...)
	})
	requireSame(t, "Posterior "+ctx, avx, portable)
}
