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

// BenchmarkKernelFillRow times one model-row worth of kernel evaluations
// (the n×m cross-covariance fill is the irreducible part of pool scoring).
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

// BenchmarkFillRowsMatern52 times the staged concrete-kernel batch fill
// (compare ns/eval against BenchmarkKernelFillRow's interface path).
func BenchmarkFillRowsMatern52(b *testing.B) {
	m, pool := benchModel(b, 64, 15)
	k := m.kernel.(Matern52)
	var s PredictScratch
	kmat := linalg.NewMatrix(64, len(pool))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillRowsMatern52(&s, kmat, m.xbuf[:64], pool, k)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(64*len(pool)), "ns/eval")
}
