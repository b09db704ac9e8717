// Column kernels: the five inner loops under the GP scoring path. Each
// runs over independent columns — pool candidates — and does, per column,
// a fixed sequence of IEEE operations rounded after every step. The loops
// below are that sequence in portable Go; on an amd64 CPU with AVX,
// kernels_amd64.go swaps in 256-bit versions that put four columns in one
// register and issue the same multiply, subtract, add, divide and maximum
// per lane, never fused, so a column's value is the same bits either way
// (DESIGN.md §4, "Column kernels"). The four linear ones take a whole
// panel per call, the running value of every column held in a register
// across all the rows it reads; the squared distances produce up to four
// output rows per call, one per window row, each load of the panel feeding
// all of them, and the other three one output row. The fifth, the Matérn
// transform, ends in math.Exp: its amd64 copy fuses exactly where
// math.Exp's own assembly does, on exactly the CPUs where it does. The Go
// loops are what every other architecture runs and what the tests hold
// the assembly to.

package linalg

import (
	"fmt"
	"math"
)

// columnKernels is one implementation of the five loops. In dots and
// solveRow pt is a row-major panel of len(x) rows, len(dst) columns wide.
type columnKernels struct {
	// sqDists: for each of the first rows (1 to 4) points x[r] of
	// dimension len(x[0]), dst[r·stride+c] = Σ_d (pt[d·w+c] − x[r][d])², d
	// ascending from 0, for the w = len(dst) − (rows−1)·stride columns of
	// the dim-major panel pt.
	sqDists func(dst []float64, stride int, pt []float64, x [4][]float64, rows int)
	// dots: dst[c] = Σ_i pt[i·len(dst)+c]·x[i], i ascending from 0.
	dots func(dst, pt, x []float64)
	// solveRow: dst[c] = (((b[c] − x[0]·pt[c]) − x[1]·pt[len(dst)+c]) − …)
	// / pivot, the chained subtraction k-ascending, then one division.
	solveRow func(dst, b, pt, x []float64, pivot float64)
	// matern52: row[c] = vr·(1 + √5r + 5r²/3)·exp(−√5r), r = √row[c]/ls.
	matern52 func(row []float64, ls, vr float64)
	// maxSquares: dst[c] = max_i pt[i·len(dst)+c]², i over the panel's
	// len(pt)/len(dst) rows, 0 over none; in a column that holds a NaN, a
	// NaN with every bit set (nanColumn).
	maxSquares func(dst, pt []float64)
}

// kern is the implementation in use. It is written by the amd64 init and
// by tests, nowhere else: nothing outside the CPU decides which loops run.
var kern = &portableKernels

var portableKernels = columnKernels{
	sqDists:    sqDistsGo,
	dots:       dotsGo,
	solveRow:   solveRowGo,
	matern52:   matern52Go,
	maxSquares: maxSquaresGo,
}

func sqDistsGo(dst []float64, stride int, pt []float64, x [4][]float64, rows int) {
	w := len(dst) - (rows-1)*stride
	for r, xr := range x[:rows] {
		row := dst[r*stride : r*stride+w : r*stride+w]
		clear(row)
		for d, v := range xr {
			col := pt[d*w : d*w+w : d*w+w]
			for c, p := range col {
				dd := p - v
				row[c] += dd * dd
			}
		}
	}
}

func dotsGo(dst, pt, x []float64) {
	q := len(dst)
	for c := range dst {
		dst[c] = 0
	}
	for i, a := range x {
		row := pt[i*q : i*q+q : i*q+q]
		for c, v := range row {
			dst[c] += v * a
		}
	}
}

func solveRowGo(dst, b, pt, x []float64, pivot float64) {
	q := len(dst)
	copy(dst, b[:q])
	for k, l := range x {
		row := pt[k*q : k*q+q : k*q+q]
		for c, v := range row {
			dst[c] -= l * v
		}
	}
	for c := range dst {
		dst[c] /= pivot
	}
}

// sqrt5 is the math.Sqrt(5) constant inside gp.Matern52.Eval.
var sqrt5 = math.Sqrt(5)

func matern52Go(row []float64, ls, vr float64) {
	for c, d2 := range row {
		r := math.Sqrt(d2) / ls
		s5r := sqrt5 * r
		row[c] = vr * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
	}
}

// nanColumn is what maxSquares writes for a column holding a NaN: the
// assembly ORs an all-ones mask into it, whatever the maximum held.
const nanColumn = 1<<64 - 1

func maxSquaresGo(dst, pt []float64) {
	q := len(dst)
	clear(dst)
	for i := q; i <= len(pt) && q > 0; i += q {
		for c, v := range pt[i-q : i : i] {
			// A NaN, once in, stays: no square compares above it.
			if s := v * v; s > dst[c] || s != s {
				dst[c] = s
			}
		}
	}
	for c, m := range dst {
		if m != m {
			dst[c] = math.Float64frombits(nanColumn)
		}
	}
}

// SquaredDistancesInto writes, for every column c of the dim-major panel
// pt (pt[d·len(dst)+c] is coordinate d of point c), the squared distance
// ‖pt_c − x‖² into dst[c] — per column the sum SquaredDistance computes,
// dimensions ascending. It is SquaredDistanceRowsInto of one row.
func SquaredDistancesInto(dst, pt, x []float64) {
	if len(pt) != len(x)*len(dst) {
		panic(fmt.Sprintf("linalg: SquaredDistancesInto got a panel of %d for %d points of dimension %d", len(pt), len(dst), len(x)))
	}
	kern.sqDists(dst, 0, pt, [4][]float64{x}, 1)
}

// SquaredDistanceRowsInto is SquaredDistancesInto for every point of xs,
// row r of the output at dst[r·stride:], w columns wide: dst holds
// (len(xs)−1)·stride + w entries, stride ≥ w. The points go to the kernel
// four at a time, each load of the panel serving four of them.
func SquaredDistanceRowsInto(dst []float64, stride int, pt []float64, xs [][]float64) {
	if len(xs) == 0 {
		return
	}
	dim := len(xs[0])
	w := len(dst) - (len(xs)-1)*stride
	if w < 0 || len(xs) > 1 && stride < w || len(pt) != dim*w {
		panic(fmt.Sprintf("linalg: SquaredDistanceRowsInto got %d entries at stride %d for %d rows and a panel of %d in dimension %d", len(dst), stride, len(xs), len(pt), dim))
	}
	var x [4][]float64
	for r0 := 0; r0 < len(xs); r0 += len(x) {
		rows := copy(x[:], xs[r0:])
		for _, xr := range x[:rows] {
			if len(xr) != dim {
				panic(fmt.Sprintf("linalg: SquaredDistanceRowsInto got points of dimension %d and %d", dim, len(xr)))
			}
		}
		kern.sqDists(dst[r0*stride:r0*stride+(rows-1)*stride+w], stride, pt, x, rows)
	}
}

// MaxSquaresInto writes, for every column c of the row-major panel pt
// (pt[i·len(dst)+c] is row i of column c), the largest square of its
// entries into dst[c], rows ascending: 0 for a panel of no rows, NaN for a
// column that holds one anywhere.
func MaxSquaresInto(dst, pt []float64) {
	if len(dst) == 0 && len(pt) != 0 || len(dst) != 0 && len(pt)%len(dst) != 0 {
		panic(fmt.Sprintf("linalg: MaxSquaresInto got a panel of %d for %d columns", len(pt), len(dst)))
	}
	kern.maxSquares(dst, pt)
}

// DotsInto writes, for every column c of the row-major panel pt
// (pt[i·len(dst)+c] is row i of column c), the inner product Σ_i
// pt_c[i]·x[i] into dst[c] — per column the sum Dot computes, rows
// ascending.
func DotsInto(dst, pt, x []float64) {
	if len(pt) != len(x)*len(dst) {
		panic(fmt.Sprintf("linalg: DotsInto got a panel of %d for %d columns of %d rows", len(pt), len(dst), len(x)))
	}
	kern.dots(dst, pt, x)
}

// Matern52Row turns a row of squared distances d² into Matérn 5/2
// covariances in place: row[c] = vr·(1 + √5r + 5r²/3)·exp(−√5r) with
// r = √row[c]/ls — per column gp.Matern52.Eval's expression, to the bit.
func Matern52Row(row []float64, ls, vr float64) {
	kern.matern52(row, ls, vr)
}
