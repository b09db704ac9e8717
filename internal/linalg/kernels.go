// Column kernels: the seven inner loops under the GP scoring path. Each
// runs over independent columns — pool candidates — and does, per column,
// a fixed sequence of IEEE operations rounded after every step. The loops
// below are that sequence in portable Go; on an amd64 CPU with AVX,
// kernels_amd64.go swaps in 256-bit versions that put four columns in one
// register and issue the same multiply, subtract, add and divide per lane,
// never fused, so a column's value is the same bits either way (DESIGN.md
// §4, "Column kernels"). The seventh, the Matérn transform, ends in
// math.Exp: its amd64 copy fuses exactly where math.Exp's own assembly
// does, on exactly the CPUs where it does. The Go loops are what every
// other architecture runs and what the tests hold the assembly to.

package linalg

import (
	"fmt"
	"math"
)

// columnKernels is one implementation of the seven loops.
type columnKernels struct {
	// subMul8: y[j] = ((y[j] − l[0]·rows[j]) − … − l[7]·rows[7·stride+j]),
	// the chained subtraction of eight solved rows, left to right.
	subMul8 func(y []float64, l *[8]float64, rows []float64, stride int)
	// subMul: y[j] −= l·x[j].
	subMul func(y, x []float64, l float64)
	// div: y[j] /= pivot (a division, not a multiplication by 1/pivot).
	div func(y []float64, pivot float64)
	// sqDists: dst[c] = Σ_d (pt[d·len(dst)+c] − x[d])², d ascending from 0.
	sqDists func(dst, pt, x []float64)
	// addMul: acc[c] += a·v[c].
	addMul func(acc, v []float64, a float64)
	// addSq: acc[c] += v[c]².
	addSq func(acc, v []float64)
	// matern52: row[c] = vr·(1 + √5r + 5r²/3)·exp(−√5r), r = √row[c]/ls.
	matern52 func(row []float64, ls, vr float64)
}

// kern is the implementation in use. It is written by the amd64 init and
// by tests, nowhere else: nothing outside the CPU decides which loops run.
var kern = &portableKernels

var portableKernels = columnKernels{
	subMul8:  subMul8Go,
	subMul:   subMulGo,
	div:      divGo,
	sqDists:  sqDistsGo,
	addMul:   addMulGo,
	addSq:    addSqGo,
	matern52: matern52Go,
}

func subMul8Go(y []float64, l *[8]float64, rows []float64, stride int) {
	m := len(y)
	y0 := rows[0*stride : 0*stride+m : 0*stride+m]
	y1 := rows[1*stride : 1*stride+m : 1*stride+m]
	y2 := rows[2*stride : 2*stride+m : 2*stride+m]
	y3 := rows[3*stride : 3*stride+m : 3*stride+m]
	y4 := rows[4*stride : 4*stride+m : 4*stride+m]
	y5 := rows[5*stride : 5*stride+m : 5*stride+m]
	y6 := rows[6*stride : 6*stride+m : 6*stride+m]
	y7 := rows[7*stride : 7*stride+m : 7*stride+m]
	l0, l1, l2, l3, l4, l5, l6, l7 := l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]
	for j, v := range y {
		v = v - l0*y0[j] - l1*y1[j] - l2*y2[j] - l3*y3[j]
		y[j] = v - l4*y4[j] - l5*y5[j] - l6*y6[j] - l7*y7[j]
	}
}

func subMulGo(y, x []float64, l float64) {
	x = x[:len(y)]
	for j, v := range x {
		y[j] -= l * v
	}
}

func divGo(y []float64, pivot float64) {
	for j := range y {
		y[j] /= pivot
	}
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

func addMulGo(acc, v []float64, a float64) {
	v = v[:len(acc)]
	for c, x := range v {
		acc[c] += x * a
	}
}

func addSqGo(acc, v []float64) {
	v = v[:len(acc)]
	for c, x := range v {
		acc[c] += x * x
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

// AddScaled accumulates acc[c] += a·v[c] over equal-length vectors.
func AddScaled(acc, v []float64, a float64) {
	if len(acc) != len(v) {
		panic(fmt.Sprintf("linalg: AddScaled dimension mismatch: %d vs %d", len(acc), len(v)))
	}
	kern.addMul(acc, v, a)
}

// AddSquares accumulates acc[c] += v[c]² over equal-length vectors.
func AddSquares(acc, v []float64) {
	if len(acc) != len(v) {
		panic(fmt.Sprintf("linalg: AddSquares dimension mismatch: %d vs %d", len(acc), len(v)))
	}
	kern.addSq(acc, v)
}

// Matern52Row turns a row of squared distances d² into Matérn 5/2
// covariances in place: row[c] = vr·(1 + √5r + 5r²/3)·exp(−√5r) with
// r = √row[c]/ls — per column gp.Matern52.Eval's expression, to the bit.
func Matern52Row(row []float64, ls, vr float64) {
	kern.matern52(row, ls, vr)
}
