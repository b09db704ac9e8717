//go:build amd64 && !amd64.v3

package linalg

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"satori/internal/stats"
)

// requireAVX skips on a CPU where init kept the portable kernels: there the
// assembly cannot run, and comparing the Go loops with themselves would
// prove nothing. CI greps that these tests ran.
func requireAVX(tb testing.TB) {
	tb.Helper()
	if avx, _ := cpuFeatures(); !avx {
		tb.Skip("SKIPPED-NO-AVX: this CPU or OS does not offer AVX, the column kernels run as portable Go only")
	}
}

// requireFMA is requireAVX for the Matérn transform, whose assembly replays
// math.Exp's fused branch and runs only where math.Exp takes it.
func requireFMA(tb testing.TB) {
	tb.Helper()
	if avx, fma := cpuFeatures(); !avx || !fma {
		tb.Skip("SKIPPED-NO-FMA: this CPU or OS does not offer AVX and FMA, the Matérn transform runs as portable Go only")
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
// the bit, over widths that exercise every mix of the 16-, 8-, 4- and
// 1-column blocks, panels of the row counts the callers see on both sides
// of 8, pivots of either sign, and for the squared distances 0 to 9 and 64
// points — whole groups of four and every remainder — written at a row
// stride wider than the panel.
func TestColumnKernelsMatchPortable(t *testing.T) {
	requireAVX(t)
	rng := stats.NewRNG(24)
	// run calls one kernel under both implementations on identical inputs
	// (call receives fresh copies of out's buffer) and compares the whole
	// output buffer, guard entries included.
	run := func(name string, k kernelCase, rows int, whole []float64, call func(impl *columnKernels, whole []float64)) {
		t.Helper()
		want := append([]float64(nil), whole...)
		got := append([]float64(nil), whole...)
		call(&portableKernels, want)
		call(&avxKernels, got)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s n=%d rows=%d offset=%d awkward=%v: entry %d (column %d) is %v (%#x) under AVX, %v (%#x) portable",
					name, k.n, rows, k.off, k.awkwardToo, i, i-k.off, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for _, awkwardToo := range []bool{false, true} {
				k := kernelCase{rng: rng, n: n, off: off, awkwardToo: awkwardToo}
				_, y := k.window(n)
				out := func(whole []float64) []float64 { return whole[off : off+n : off+n] }

				for _, dim := range []int{0, 1, 2, 15} {
					pt, _ := k.window(dim * n)
					stride := n + 1 + off
					for _, points := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
						xs := make([][]float64, points)
						for r := range xs {
							xs[r], _ = k.window(dim)
						}
						size := max(0, (points-1)*stride+n)
						_, rowsOut := k.window(size)
						run("sqDists", k, points, rowsOut, func(impl *columnKernels, whole []float64) {
							withKernels(impl, func() { SquaredDistanceRowsInto(whole[off:off+size:off+size], stride, pt, xs) })
						})
					}
					pos, _ := k.window(dim)
					run("sqDists one row", k, dim, y, func(impl *columnKernels, whole []float64) {
						withKernels(impl, func() { SquaredDistancesInto(out(whole), pt, pos) })
					})
				}
				for _, rows := range []int{0, 1, 7, 8, 9, 64} {
					pt, _ := k.window(rows * n)
					x, _ := k.window(rows)
					b, _ := k.window(n)
					run("dots", k, rows, y, func(impl *columnKernels, whole []float64) { impl.dots(out(whole), pt, x) })
					for _, pivot := range []float64{k.values(1)[0], -1.75, -3e-309} {
						run("solveRow", k, rows, y, func(impl *columnKernels, whole []float64) { impl.solveRow(out(whole), b, pt, x, pivot) })
					}
					run("maxSquares", k, rows, y, func(impl *columnKernels, whole []float64) { impl.maxSquares(out(whole), pt) })
				}
			}
		}
	}
	// The maxima's NaN columns, planted where a lane-wise maximum could lose
	// them: a NaN in the first row, in the last, after a larger value, and
	// among ±0 and ±Inf, in every lane of every block.
	for n := 1; n <= 40; n++ {
		for _, rows := range []int{1, 2, 3, 8, 64} {
			for _, plant := range []string{"first", "last", "after larger", "signed zeros", "infinities"} {
				pt := make([]float64, rows*n)
				for i := range pt {
					pt[i] = rng.NormFloat64()
				}
				for c := 0; c < n; c++ {
					switch at := c % rows; plant {
					case "first":
						pt[c] = math.NaN()
					case "last":
						pt[(rows-1)*n+c] = math.NaN()
					case "after larger":
						pt[at*n+c] = 1e150
						if at+1 < rows {
							pt[(at+1)*n+c] = math.NaN()
						}
					case "signed zeros":
						pt[at*n+c] = math.Copysign(0, float64(c%2*2-1))
						if c%3 == 0 {
							pt[(rows-1-at)*n+c] = math.NaN()
						}
					case "infinities":
						pt[at*n+c] = math.Inf(c%2*2 - 1)
						if c%3 == 0 {
							pt[(rows-1-at)*n+c] = math.NaN()
						}
					}
				}
				want, got := make([]float64, n), make([]float64, n)
				maxSquaresGo(want, pt)
				maxSquaresAVX(got, pt)
				for c := range want {
					if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
						t.Fatalf("maxSquares n=%d rows=%d, NaN %s: column %d is %v (%#x) under AVX, %v (%#x) portable",
							n, rows, plant, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
					}
				}
			}
		}
	}
	// A panel that is not len(x) rows of len(dst) columns is refused before
	// either implementation reads it.
	for _, impl := range []*columnKernels{&portableKernels, &avxKernels} {
		withKernels(impl, func() {
			defer func() {
				if recover() == nil {
					t.Error("DotsInto read a misshapen panel")
				}
			}()
			DotsInto(make([]float64, 5), make([]float64, 4*5-1), make([]float64, 4))
		})
	}
}

// maternInput draws a squared distance: awkward one time in eight (the
// negative ones and NaN make √ NaN, the huge ones and +Inf push the
// exponent argument past −700), a lattice distance (a configuration space
// is a grid, so k/121 and k/100 repeat) one time in two, else a positive
// value of mixed magnitude.
func maternInput(rng *stats.RNG) float64 {
	switch rng.Uint64n(8) {
	case 0:
		return awkward[rng.Uint64n(uint64(len(awkward)))]
	case 1, 2:
		return float64(rng.Uint64n(500)) / 121
	case 3, 4:
		return float64(rng.Uint64n(500)) / 100
	default:
		return rng.Float64() * math.Pow(10, float64(rng.Uint64n(9))-4)
	}
}

// requireMaternSame runs both transforms over whole[off:off+n] of copies of
// whole and requires every entry, guards included, to the bit.
func requireMaternSame(t *testing.T, what string, whole []float64, off, n int, ls, vr float64) {
	t.Helper()
	want := append([]float64(nil), whole...)
	got := append([]float64(nil), whole...)
	matern52Go(want[off:off+n], ls, vr)
	matern52AVX(got[off:off+n], ls, vr)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d offset=%d ls=%g vr=%g: entry %d (column %d, d²=%v) is %v (%#x) under AVX+FMA, %v (%#x) portable",
				what, n, off, ls, vr, i, i-off, whole[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMaternTransformMatchesPortable holds the assembly transform to the Go
// loop — whose exponential is the live math.Exp, so a toolchain whose Exp
// changes fails here instead of drifting — over lengths on both sides of
// every 4-column block, length scales from 1e-3 to 1e3 (the small ones push
// most lanes past −700), and a row with one out-of-range lane planted at
// every column, so the stop-and-finish path starts from each block.
func TestMaternTransformMatchesPortable(t *testing.T) {
	requireFMA(t)
	rng := stats.NewRNG(25)
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			for _, ls := range []float64{1e-3, 0.02, 0.3, 1, 3.7, 60, 1e3} {
				whole := make([]float64, off+n+1)
				for i := range whole {
					whole[i] = maternInput(rng)
				}
				requireMaternSame(t, "mixed", whole, off, n, ls, 0.1+2*rng.Float64())
			}
		}
	}
	// Squared distances (ls = vr = 1) at which one of the exponential's
	// fused steps, rounded twice instead, changes the result — two each for
	// the Horner steps adding 1/2 and 1 and for the last squaring; found by
	// emulating exp_amd64.s with each FMA split, random inputs rarely hit
	// one. (The other seven FMAs are unobservable: DESIGN.md §4.)
	for _, d2 := range []float64{
		12916.926809762423, 18720.294847427132,
		26024.316286849204, 12570.014980603453,
		48662.79298032308, 59174.00652082493,
	} {
		requireMaternSame(t, "fused-step sentinel", []float64{d2, d2, d2, d2}, 0, 4, 1, 1)
	}
	// At ls = 1, d² = 98 000 puts −√5r on −700: lattice values and 97 999
	// are in range, 98 001, 1e6, NaN, +Inf and a negative d² are not.
	outside := []float64{98001, 1e6, math.NaN(), math.Inf(1), -1}
	for n := 1; n <= 67; n++ {
		clean := make([]float64, n)
		for c := range clean {
			clean[c] = float64(rng.Uint64n(500)) / 121
		}
		clean[rng.Uint64n(uint64(n))] = 97999
		if done := matern52Blocks(append([]float64(nil), clean...), 1, 0.8); done != n/4*4 {
			t.Fatalf("n=%d: the assembly finished %d columns of an in-range row, want %d", n, done, n/4*4)
		}
		for p := 0; p < n; p++ {
			row := append([]float64(nil), clean...)
			row[p] = outside[p%len(outside)]
			blocks := append([]float64(nil), row...)
			done := matern52Blocks(blocks, 1, 0.8)
			if done != p/4*4 {
				t.Fatalf("n=%d, lane %d out of range: the assembly finished %d columns, want %d", n, p, done, p/4*4)
			}
			for c := done; c < n; c++ {
				if math.Float64bits(blocks[c]) != math.Float64bits(row[c]) {
					t.Fatalf("n=%d, lane %d out of range: column %d was written past the stop", n, p, c)
				}
			}
			requireMaternSame(t, "out-of-range lane", row, 0, n, 1, 0.8)
		}
	}
}

// TestMaternTransformSelection: the assembly transform is in use exactly
// when math.Exp takes its fused branch — CPUID leaf 1 ECX bits 12 (FMA), 27
// (OSXSAVE) and 28 (AVX) and XCR0 bits 1–2 all set, internal/cpu's useFMA.
func TestMaternTransformSelection(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG turns CPU features off for package math; init follows math, not CPUID")
	}
	const bits = 1<<12 | 1<<27 | 1<<28
	want := false
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 1 {
		if _, _, ecx, _ := cpuid(1, 0); ecx&bits == bits {
			xcr0, _ := xgetbv()
			want = xcr0&6 == 6
		}
	}
	got := reflect.ValueOf(kern.matern52).Pointer() == reflect.ValueOf(matern52AVX).Pointer()
	if got != want {
		t.Fatalf("assembly Matérn transform in use: %v; AVX+FMA by CPUID/XCR0: %v", got, want)
	}
}

// FuzzMatern52Row: one block and a one-column tail under any length scale
// and variance; the two copies agree to the bit.
func FuzzMatern52Row(f *testing.F) {
	requireFMA(f)
	f.Add(0.0, 1.0, 2.0, 0.5, 3.0, 1.0, 1.0)
	f.Add(4.0/121, math.Copysign(0, -1), 97999.0, 98001.0, 7.0/100, 1.0, 0.7)
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, 1e-3, 1.0)
	f.Add(math.NaN(), 1e-310, -1.0, 0.37, 16.0/100, 0.3, 2.5)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, -1.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, d0, d1, d2, d3, d4, ls, vr float64) {
		requireMaternSame(t, "fuzz", []float64{d0, d1, d2, d3, d4}, 0, 5, ls, vr)
	})
}

// TestSolveLowerMatrixSameUnderBothKernels: the solve returns the same
// bits under either kernel set, with the factor on both sides of 8 rows and
// the panel on both sides of the 16- and 4-column blocks. (Package gp's
// callers are driven the same way from the external test file.)
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

// TestSolveLowerMatrixColumnsMatchVectorSolveUnderBothKernels: under
// either kernel set, column c of the matrix solve is SolveLowerInto of
// column c of B, bit for bit, for factors up to 70 rows and every panel
// width up to 40.
func TestSolveLowerMatrixColumnsMatchVectorSolveUnderBothKernels(t *testing.T) {
	requireAVX(t)
	rng := stats.NewRNG(28)
	for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 70} {
		c, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		col, want := make([]float64, n), make([]float64, n)
		for q := 1; q <= 40; q++ {
			rhs := NewMatrix(n, q)
			for i := range rhs.Data {
				rhs.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Uint64n(5))-2)
			}
			for name, impl := range map[string]*columnKernels{"AVX": &avxKernels, "portable": &portableKernels} {
				var got *Matrix
				withKernels(impl, func() { got = c.SolveLowerMatrixInto(NewMatrix(n, q), rhs) })
				for j := 0; j < q; j++ {
					for i := range col {
						col[i] = rhs.At(i, j)
					}
					c.SolveLowerInto(want, col)
					for i, w := range want {
						if math.Float64bits(got.At(i, j)) != math.Float64bits(w) {
							t.Fatalf("%s n=%d q=%d: column %d row %d is %v, the vector solve %v", name, n, q, j, i, got.At(i, j), w)
						}
					}
				}
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

// benchColumnKernels times what the engine's steady state asks of the
// linear kernels, 64 window rows in 15 dimensions: for a full panel of 32
// candidates and a narrowed one of 8, the squared-distance fill of every
// row, the posterior means (dots), the triangular solve (one solveRow per
// factor row) and the squared norms of the solved panel; for the narrowed
// panel also the maxima its σ ceilings read.
func benchColumnKernels(b *testing.B, impl *columnKernels) {
	const n, dim = 64, 15
	rng := stats.NewRNG(5)
	c, err := NewCholesky(randomSPD(rng, n))
	if err != nil {
		b.Fatal(err)
	}
	xs := make([][]float64, n)
	for r := range xs {
		xs[r] = make([]float64, dim)
		for d := range xs[r] {
			xs[r][d] = rng.NormFloat64()
		}
	}
	alpha, zeros := make([]float64, n), make([]float64, n)
	for i := range alpha {
		alpha[i] = rng.NormFloat64()
	}
	type panel struct {
		kmat, vmat    *Matrix
		pt, mu, norms []float64
		ceilings      bool
	}
	var panels []panel
	for _, q := range []int{32, 8} {
		p := panel{kmat: NewMatrix(n, q), vmat: NewMatrix(n, q), pt: make([]float64, dim*q), mu: make([]float64, q), norms: make([]float64, q), ceilings: q == 8}
		for i := range p.pt {
			p.pt[i] = rng.NormFloat64()
		}
		panels = append(panels, p)
	}
	withKernels(impl, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range panels {
				SquaredDistanceRowsInto(p.kmat.Data, p.kmat.Cols, p.pt, xs)
				DotsInto(p.mu, p.kmat.Data, alpha)
				if p.ceilings {
					MaxSquaresInto(p.norms, p.kmat.Data)
				}
				c.SolveLowerMatrixInto(p.vmat, p.kmat)
				SquaredDistancesInto(p.norms, p.vmat.Data, zeros)
			}
		}
	})
}

func BenchmarkColumnKernelsPortable(b *testing.B) { benchColumnKernels(b, &portableKernels) }

func BenchmarkColumnKernelsAVX(b *testing.B) {
	requireAVX(b)
	benchColumnKernels(b, &avxKernels)
}

// benchMatern52Row times the transform of one 32-column panel row at the
// engine's steady state: lattice squared distances in a 15-dimensional
// space, a length scale near their median.
func benchMatern52Row(b *testing.B, transform func(row []float64, ls, vr float64)) {
	d2 := make([]float64, 32)
	for c := range d2 {
		d2[c] = float64(c*37%64) * 15 / 121
	}
	row := make([]float64, len(d2))
	for i := 0; i < b.N; i++ {
		copy(row, d2)
		transform(row, 2.5, 0.8)
	}
}

func BenchmarkMatern52RowPortable(b *testing.B) { benchMatern52Row(b, matern52Go) }

func BenchmarkMatern52RowAVX(b *testing.B) {
	requireFMA(b)
	benchMatern52Row(b, matern52AVX)
}
