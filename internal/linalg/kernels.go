// Column kernels: the four inner loops under the GP scoring path. Each
// runs over independent columns — pool candidates — and does, per column,
// a fixed sequence of IEEE operations rounded after every step. The loops
// below are that sequence in portable Go; on an amd64 CPU with AVX,
// kernels_amd64.go swaps in 256-bit versions that put four columns in one
// register and issue the same multiply, subtract, add and divide per lane,
// never fused, so a column's value is the same bits either way (DESIGN.md
// §4, "Column kernels"). The three linear ones take a whole panel per call
// and produce one output row, the running value of every column held in a
// register across all the rows it reads. The fourth, the Matérn transform,
// ends in math.Exp: its amd64 copy fuses exactly where math.Exp's own
// assembly does, on exactly the CPUs where it does. The Go loops are what
// every other architecture runs and what the tests hold the assembly to.

package linalg

import (
	"fmt"
	"math"
)

// columnKernels is one implementation of the four loops. In each linear
// one pt is a row-major panel of len(x) rows, len(dst) columns wide.
type columnKernels struct {
	// sqDists: dst[c] = Σ_d (pt[d·len(dst)+c] − x[d])², d ascending from 0.
	sqDists func(dst, pt, x []float64)
	// dots: dst[c] = Σ_i pt[i·len(dst)+c]·x[i], i ascending from 0.
	dots func(dst, pt, x []float64)
	// solveRow: dst[c] = (((b[c] − x[0]·pt[c]) − x[1]·pt[len(dst)+c]) − …)
	// / pivot, the chained subtraction k-ascending, then one division.
	solveRow func(dst, b, pt, x []float64, pivot float64)
	// matern52: row[c] = vr·(1 + √5r + 5r²/3)·exp(−√5r), r = √row[c]/ls.
	matern52 func(row []float64, ls, vr float64)
}

// kern is the implementation in use. It is written by the amd64 init and
// by tests, nowhere else: nothing outside the CPU decides which loops run.
var kern = &portableKernels

var portableKernels = columnKernels{
	sqDists:  sqDistsGo,
	dots:     dotsGo,
	solveRow: solveRowGo,
	matern52: matern52Go,
}

func sqDistsGo(dst, pt, x []float64) {
	q := len(dst)
	for c := range dst {
		dst[c] = 0
	}
	for d, w := range x {
		col := pt[d*q : d*q+q : d*q+q]
		for c, v := range col {
			dd := v - w
			dst[c] += dd * dd
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

// SquaredDistancesInto writes, for every column c of the dim-major panel
// pt (pt[d·len(dst)+c] is coordinate d of point c), the squared distance
// ‖pt_c − x‖² into dst[c] — per column the sum SquaredDistance computes,
// dimensions ascending.
func SquaredDistancesInto(dst, pt, x []float64) {
	if len(pt) != len(x)*len(dst) {
		panic(fmt.Sprintf("linalg: SquaredDistancesInto got a panel of %d for %d points of dimension %d", len(pt), len(dst), len(x)))
	}
	kern.sqDists(dst, pt, x)
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
