package gp

import (
	"math/rand"
	"testing"

	"satori/internal/linalg"
)

func benchModel(b *testing.B, n, dim int) (*Incremental, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	xs := randomInputs(rng, n, dim)
	ys := randomTargets(rng, xs)
	m := NewIncremental(Options{})
	if err := m.Reset(xs, ys); err != nil {
		b.Fatal(err)
	}
	return m, randomInputs(rng, 128, dim)
}

// BenchmarkKernelFillRow times one model-row worth of per-element Eval
// calls (the n×m cross-covariance fill is the irreducible part of pool
// scoring; compare BenchmarkFillRowsMatern52).
func BenchmarkKernelFillRow(b *testing.B) {
	m, pool := benchModel(b, 64, 15)
	row := make([]float64, len(pool))
	xi := m.xbuf[0]
	kernel := m.kernel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, x := range pool {
			row[c] = kernel.Eval(x, xi)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pool)), "ns/eval")
}

// BenchmarkSolveLowerVec times the latency-bound per-candidate triangular
// solve at the engine's steady-state model size.
func BenchmarkSolveLowerVec(b *testing.B) {
	m, _ := benchModel(b, 64, 15)
	bvec := make([]float64, 64)
	for i := range bvec {
		bvec[i] = float64(i%7) * 0.1
	}
	dst := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.chol.SolveLowerInto(dst, bvec)
	}
}

// benchSolveLowerMatrix times the batched solve for a q-candidate pool
// (compare the ns/cand metric against BenchmarkSolveLowerVec's ns/op).
func benchSolveLowerMatrix(b *testing.B, q int) {
	m, _ := benchModel(b, 64, 15)
	bm := linalg.NewMatrix(64, q)
	for i := range bm.Data {
		bm.Data[i] = float64(i%11) * 0.05
	}
	dst := linalg.NewMatrix(64, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.chol.SolveLowerMatrixInto(dst, bm)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(q), "ns/cand")
}

func BenchmarkSolveLowerMatrix32(b *testing.B)  { benchSolveLowerMatrix(b, 32) }
func BenchmarkSolveLowerMatrix128(b *testing.B) { benchSolveLowerMatrix(b, 128) }

// BenchmarkFillRowsMatern52 times the staged batch fill (compare ns/eval
// against BenchmarkKernelFillRow's per-element Eval).
func BenchmarkFillRowsMatern52(b *testing.B) {
	m, pool := benchModel(b, 64, 15)
	var pts Points
	pts.Load(pool)
	q := len(pool)
	kmat := make([]float64, 64*q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p0 := 0; p0 < q; p0 += panelWidth {
			p1 := min(p0+panelWidth, q)
			fillRowsMatern52(kmat[64*p0:64*p1], p1-p0, m.xbuf[:64], pts.panel(p0, p1), m.kernel)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(64*len(pool)), "ns/eval")
}

// benchBlock72 builds the neighbourhood block a 24-job engine on a
// 48-core, 32-way, 24-band machine scores: a window of 64, dimension 72,
// and every coordinate giving, 72·23 = 1 656 moves.
func benchBlock72(b *testing.B) (*Incremental, *Moves, *Points) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	xs := randomInputs(rng, 64, 72)
	m := NewIncremental(Options{Noise: 1e-3})
	if err := m.Reset(xs, randomTargets(rng, xs)); err != nil {
		b.Fatal(err)
	}
	mv := &Moves{Base: 5, Group: 24, Give: make([]float64, 72), Take: make([]float64, 72)}
	for k := range mv.Give {
		units := []float64{48, 32, 24}[k/24]
		mv.Give[k], mv.Take[k] = xs[5][k]-1/units, xs[5][k]+1/units
	}
	return m, mv, pointsOf(movedPoints(m, mv))
}

// BenchmarkDenseBlock72 fills and solves the block from its materialised
// points (compare BenchmarkMovedBlock72).
func BenchmarkDenseBlock72(b *testing.B) {
	m, _, pts := benchBlock72(b)
	var s PredictScratch
	var blk Block
	mu, sigma := make([]float64, pts.Len()), make([]float64, pts.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBlockInto(&s, &blk, mu, sigma, pts)
	}
}

// BenchmarkMovedBlock72 fills and solves the same block from its moves.
func BenchmarkMovedBlock72(b *testing.B) {
	m, mv, pts := benchBlock72(b)
	var s PredictScratch
	var blk Block
	mu, sigma := make([]float64, pts.Len()), make([]float64, pts.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictMovedBlockInto(&s, &blk, mu, sigma, mv)
	}
}

// benchTargets64 builds a window of 64 in dimension 15 (a 5-job node) with
// its goals and a second set in which the incumbent's row moved, and
// brings the model to the first.
func benchTargets64(b *testing.B) (m *Incremental, tg, fg, tg2 []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	xs := randomInputs(rng, 64, 15)
	tg, fg = goalValues(rng, 64, 0.05), goalValues(rng, 64, 0.05)
	m = NewIncremental(Options{Noise: 1e-3})
	if err := m.Reset(xs, weighted(tg, fg, 0.5, 0.5)); err != nil {
		b.Fatal(err)
	}
	tg2 = append([]float64(nil), tg...)
	tg2[7] += 0.01
	return m, tg, fg, tg2
}

// BenchmarkSolvedTargets64 is one target-only update at window 64 with the
// incumbent's row moved, solved: the weighted targets through
// UpdateTargets, which re-solves α whenever a target moved (compare
// BenchmarkBasisTargets64).
func BenchmarkSolvedTargets64(b *testing.B) {
	m, tg, fg, tg2 := benchTargets64(b)
	ys := [2][]float64{weighted(tg, fg, 0.5, 0.5), weighted(tg2, fg, 0.5, 0.5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.UpdateTargets(ys[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBasisTargets64 is the same update through UpdateGoals, α from
// the goal basis with the incumbent's row live.
func BenchmarkBasisTargets64(b *testing.B) {
	m, tg, fg, tg2 := benchTargets64(b)
	goals := [2][]float64{tg, tg2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.UpdateGoals(goals[i%2], fg, 0.5+0.01*float64(i%2), 0.5-0.01*float64(i%2)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWalks builds a jobs-job engine's fresh panel at a window of 64: the
// inputs in dimension 3·jobs, 16 random points, then 16 walks of three
// moves from input 5 on a 24-unit grid, listed as the engine lists them.
func benchWalks(b *testing.B, jobs int) (*Incremental, *Points, Walks) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	xs := randomInputs(rng, 64, 3*jobs)
	m := NewIncremental(Options{Noise: 1e-3})
	if err := m.Reset(xs, randomTargets(rng, xs)); err != nil {
		b.Fatal(err)
	}
	pool, wk := randomInputs(rng, 16, 3*jobs), Walks{Base: 5}
	for range 16 {
		y, moved := gridWalk(rng, xs[5], jobs, 24, 3)
		pool = append(pool, y)
		wk.Moved = append(append(wk.Moved, moved...), -1)
	}
	return m, pointsOf(pool), wk
}

// benchWalkFill times filling that panel's cross-covariances and means:
// swept densely, as below walkDim, or the walks from their moves.
func benchWalkFill(b *testing.B, jobs int, moved bool) {
	m, pts, wk := benchWalks(b, jobs)
	var s PredictScratch
	kpanel, mu := make([]float64, m.n*pts.Len()), make([]float64, pts.Len())
	b.ResetTimer()
	for range b.N {
		if moved {
			m.fillWalks(&s, kpanel, pts.panel(0, pts.Len()), 16, wk.Base, wk.Moved)
			panelMeans(mu, kpanel, m.alpha, m.mean)
		} else {
			m.fillPanel(kpanel, mu, pts.panel(0, pts.Len()))
		}
	}
}

// The walk fill against the dense one at a 24-job node's dimension 72, a
// 16-job node's 48 (walkDim), an 8-job node's 24 and a 5-job node's 15.
func BenchmarkDenseWalks72(b *testing.B) { benchWalkFill(b, 24, false) }
func BenchmarkMovedWalks72(b *testing.B) { benchWalkFill(b, 24, true) }
func BenchmarkDenseWalks48(b *testing.B) { benchWalkFill(b, 16, false) }
func BenchmarkMovedWalks48(b *testing.B) { benchWalkFill(b, 16, true) }
func BenchmarkDenseWalks24(b *testing.B) { benchWalkFill(b, 8, false) }
func BenchmarkMovedWalks24(b *testing.B) { benchWalkFill(b, 8, true) }
func BenchmarkDenseWalks15(b *testing.B) { benchWalkFill(b, 5, false) }
func BenchmarkMovedWalks15(b *testing.B) { benchWalkFill(b, 5, true) }
