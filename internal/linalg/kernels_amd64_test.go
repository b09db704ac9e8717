//go:build amd64 && !amd64.v3

package linalg

import (
	"math"
	"testing"

	"satori/internal/stats"
)

// requireAVX skips on a CPU where init kept the portable kernels: there the
// assembly cannot run, and comparing the Go loops with themselves would
// prove nothing. CI greps that these tests ran.
func requireAVX(tb testing.TB) {
	tb.Helper()
	if !hasAVX() {
		tb.Skip("SKIPPED-NO-AVX: this CPU or OS does not offer AVX, the column kernels run as portable Go only")
	}
}

// awkward are the values a lane-wise copy could plausibly treat differently
// from the scalar loop: signed zeros, subnormals, the largest and smallest
// normals, infinities and NaN.
var awkward = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -3e-309,
	math.SmallestNonzeroFloat64 * 4096, 2.2250738585072014e-308, -2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, 1e200, -1e-200,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 3,
}

// sameBits is == on the bit patterns, with any NaN equal to any other: the
// hardware picks which operand's payload a NaN result carries.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// kernelCase is one random call shape: n columns starting off entries into
// their buffers, so no operand sits on a 32-byte boundary by construction.
type kernelCase struct {
	rng        *stats.RNG
	n, off     int
	awkwardToo bool
}

// values fills a fresh slice of n entries with finite values of mixed
// magnitude; when awkwardToo, one entry in four is an awkward one. Both
// kinds of input are needed: an Inf or NaN swallows its whole column, and a
// swallowed column can no longer tell a fused multiply-add from a rounded
// multiply and add.
func (k kernelCase) values(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if k.awkwardToo && k.rng.Uint64n(4) == 0 {
			v[i] = awkward[k.rng.Uint64n(uint64(len(awkward)))]
		} else {
			v[i] = k.rng.NormFloat64() * math.Pow(10, float64(k.rng.Uint64n(7))-3)
		}
	}
	return v
}

// window returns buf[off : off+n] of a fresh random buffer with one guard
// entry on each side of the window, plus the whole buffer.
func (k kernelCase) window(n int) (win, whole []float64) {
	whole = k.values(k.off + n + 1)
	return whole[k.off : k.off+n : k.off+n], whole
}

// TestColumnKernelsMatchPortable holds each AVX kernel to its Go twin, to
// the bit, over lengths that exercise the 16-, 4- and 1-column blocks and
// every way of ending between them.
func TestColumnKernelsMatchPortable(t *testing.T) {
	requireAVX(t)
	rng := stats.NewRNG(24)
	// run calls one kernel under both implementations on identical inputs
	// (call receives fresh copies of out's buffer) and compares the whole
	// output buffer, guard entries included.
	run := func(name string, k kernelCase, whole []float64, call func(impl *columnKernels, whole []float64)) {
		t.Helper()
		want := append([]float64(nil), whole...)
		got := append([]float64(nil), whole...)
		call(&portableKernels, want)
		call(&avxKernels, got)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s n=%d offset=%d awkward=%v: entry %d (column %d) is %v (%#x) under AVX, %v (%#x) portable",
					name, k.n, k.off, k.awkwardToo, i, i-k.off, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for _, awkwardToo := range []bool{false, true} {
				k := kernelCase{rng: rng, n: n, off: off, awkwardToo: awkwardToo}
				_, y := k.window(n)
				out := func(whole []float64) []float64 { return whole[off : off+n : off+n] }

				for _, stride := range []int{n, n + 1 + int(rng.Uint64n(9))} {
					l := (*[8]float64)(k.values(8))
					rows, _ := k.window(7*stride + n)
					run("subMul8", k, y, func(impl *columnKernels, whole []float64) {
						impl.subMul8(out(whole), l, rows, stride)
					})
				}

				x, _ := k.window(n)
				a := k.values(1)[0]
				run("subMul", k, y, func(impl *columnKernels, whole []float64) { impl.subMul(out(whole), x, a) })
				run("div", k, y, func(impl *columnKernels, whole []float64) { impl.div(out(whole), a) })
				run("addMul", k, y, func(impl *columnKernels, whole []float64) { impl.addMul(out(whole), x, a) })
				run("addSq", k, y, func(impl *columnKernels, whole []float64) { impl.addSq(out(whole), x) })

				for _, dim := range []int{0, 1, 2, 15} {
					pt, _ := k.window(dim * n)
					pos, _ := k.window(dim)
					run("sqDists", k, y, func(impl *columnKernels, whole []float64) { impl.sqDists(out(whole), pt, pos) })
				}
			}
		}
	}
}

// TestSolveLowerMatrixSameUnderBothKernels: the solve built on kernels 1-3
// returns the same bits under either set, with the factor on both sides of
// the eight-row sweep and the panel on both sides of the 16- and 4-column
// blocks. (Package gp's callers are driven the same way from the external
// test file.)
func TestSolveLowerMatrixSameUnderBothKernels(t *testing.T) {
	requireAVX(t)
	rng := stats.NewRNG(3)
	for _, n := range []int{1, 7, 8, 9, 17, 64} {
		c, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []int{1, 3, 4, 5, 31, 32, 33, 140} {
			rhs := NewMatrix(n, q)
			for i := range rhs.Data {
				rhs.Data[i] = rng.NormFloat64()
			}
			var avx, portable *Matrix
			withKernels(&avxKernels, func() { avx = c.SolveLowerMatrixInto(NewMatrix(n, q), rhs) })
			withKernels(&portableKernels, func() { portable = c.SolveLowerMatrixInto(NewMatrix(n, q), rhs) })
			if !equalVecs(avx.Data, portable.Data) {
				t.Fatalf("n=%d q=%d: the solve differs between the AVX and the portable kernels", n, q)
			}
		}
	}
}

// withKernels runs f under the given implementation and puts back init's
// choice afterwards.
func withKernels(impl *columnKernels, f func()) {
	saved := kern
	kern = impl
	defer func() { kern = saved }()
	f()
}

// WithPortableKernels is withKernels(&portableKernels, f) for the external
// tests, which drive package gp's callers under both implementations.
func WithPortableKernels(f func()) { withKernels(&portableKernels, f) }

// RequireAVX is requireAVX for the external tests.
func RequireAVX(tb testing.TB) { requireAVX(tb) }

// benchColumnKernels times what one scoring panel asks of the kernels at
// the engine's steady state: a 64-row × 32-column triangular solve and the
// squared-distance sweep of the same panel in 15 dimensions.
func benchColumnKernels(b *testing.B, impl *columnKernels) {
	const n, q, dim = 64, 32, 15
	rng := stats.NewRNG(5)
	c, err := NewCholesky(randomSPD(rng, n))
	if err != nil {
		b.Fatal(err)
	}
	rhs, dst := NewMatrix(n, q), NewMatrix(n, q)
	pt := make([]float64, dim*q)
	xs := make([]float64, n*dim)
	for _, buf := range [][]float64{rhs.Data, pt, xs} {
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
	}
	withKernels(impl, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				SquaredDistancesInto(dst.Data[r*q:r*q+q], pt, xs[r*dim:r*dim+dim])
			}
			c.SolveLowerMatrixInto(dst, rhs)
		}
	})
}

func BenchmarkColumnKernelsPortable(b *testing.B) { benchColumnKernels(b, &portableKernels) }

func BenchmarkColumnKernelsAVX(b *testing.B) {
	requireAVX(b)
	benchColumnKernels(b, &avxKernels)
}
