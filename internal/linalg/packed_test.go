package linalg

import (
	"math"
	"testing"

	"satori/internal/stats"
)

// squareFactor is the Cholesky factor as it was kept before the packed
// storage: row i at l[i·stride:], stride doubling as the factor grows. Its
// methods are the old code, kept as the reference the packed factor must
// equal to the bit.
type squareFactor struct {
	n, stride int
	l         []float64
}

func (c *squareFactor) factorizeRows(n int, fill func(i int, row []float64)) error {
	c.n = 0
	c.grow(n)
	l, s := c.l, c.stride
	for i := 0; i < n; i++ {
		row := l[i*s : i*s+i+1 : i*s+i+1]
		fill(i, row)
		for j := range row {
			sum := row[j]
			for k := 0; k < j; k++ {
				sum -= row[k] * l[j*s+k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotSPD
				}
				row[j] = math.Sqrt(sum)
			} else {
				row[j] = sum / l[j*s+j]
			}
		}
	}
	c.n = n
	return nil
}

func (c *squareFactor) grow(n int) {
	if n <= c.stride {
		return
	}
	stride := max(2*c.stride, n)
	l := make([]float64, stride*stride)
	for i := 0; i < c.n; i++ {
		copy(l[i*stride:i*stride+i+1], c.l[i*c.stride:i*c.stride+i+1])
	}
	c.l, c.stride = l, stride
}

func (c *squareFactor) extend(row []float64, diag float64) error {
	n := c.n
	c.grow(n + 1)
	l, s := c.l, c.stride
	for i := 0; i < n; i++ {
		sum := row[i]
		for k := 0; k < i; k++ {
			sum -= l[i*s+k] * l[n*s+k]
		}
		l[n*s+i] = sum / l[i*s+i]
	}
	pivot := diag
	for k := 0; k < n; k++ {
		pivot -= l[n*s+k] * l[n*s+k]
	}
	if pivot <= 0 || math.IsNaN(pivot) {
		return ErrIndefinite
	}
	l[n*s+n] = math.Sqrt(pivot)
	c.n = n + 1
	return nil
}

func (c *squareFactor) solveLowerInto(dst, b []float64) {
	n, l, s := c.n, c.l, c.stride
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*s+k] * dst[k]
		}
		dst[i] = sum / l[i*s+i]
	}
}

func (c *squareFactor) solveVecInto(dst, b []float64) {
	c.solveLowerInto(dst, b)
	n, l, s := c.n, c.l, c.stride
	for i := n - 1; i >= 0; i-- {
		sum := dst[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*s+i] * dst[k]
		}
		dst[i] = sum / l[i*s+i]
	}
}

func (c *squareFactor) solveLowerMatrixInto(dst, b *Matrix) {
	n, l, s, m := c.n, c.l, c.stride, b.Cols
	for i := 0; i < n; i++ {
		kern.solveRow(dst.Data[i*m:i*m+m], b.Data[i*m:i*m+m], dst.Data[:i*m], l[i*s:i*s+i], l[i*s+i])
	}
}

// TestPackedFactorMatchesSquareReference holds the packed Cholesky factor
// to the square-storage one it replaced, by Float64bits: over random SPD
// matrices, each factor is built by FactorizeRows on a leading block
// (sometimes refused as not SPD), grown one row at a time by Extend (with
// a refused append, which must leave both factors as they were, tried
// before some rows) and refactorized in place at another size; after every
// step the two factors' entries and all three solves must agree. The log
// line counts the refused factorizations and appends, both non-zero.
func TestPackedFactorMatchesSquareReference(t *testing.T) {
	rng := stats.NewRNG(74)
	var packed Cholesky
	var square squareFactor
	steps, refusedFactors, refusedExtends := 0, 0, 0
	compare := func(trial int, what string) {
		t.Helper()
		steps++
		if packed.n != square.n {
			t.Fatalf("trial %d, %s: packed size %d, square %d", trial, what, packed.n, square.n)
		}
		n := packed.n
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if j <= i {
					want = square.l[i*square.stride+j]
				}
				if got := packed.LAt(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d, %s: L(%d,%d) = %v, square %v", trial, what, i, j, got, want)
				}
			}
		}
		if n == 0 {
			return
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got, want := make([]float64, n), make([]float64, n)
		packed.SolveLowerInto(got, b)
		square.solveLowerInto(want, b)
		if !sameVecBits(got, want) {
			t.Fatalf("trial %d, %s: SolveLowerInto differs from the square factor's", trial, what)
		}
		packed.SolveVecInto(got, b)
		square.solveVecInto(want, b)
		if !sameVecBits(got, want) {
			t.Fatalf("trial %d, %s: SolveVecInto differs from the square factor's", trial, what)
		}
		m := 1 + int(rng.Uint64n(40))
		bm := NewMatrix(n, m)
		for i := range bm.Data {
			bm.Data[i] = rng.NormFloat64()
		}
		gotM, wantM := NewMatrix(n, m), NewMatrix(n, m)
		packed.SolveLowerMatrixInto(gotM, bm)
		square.solveLowerMatrixInto(wantM, bm)
		if !sameVecBits(gotM.Data, wantM.Data) {
			t.Fatalf("trial %d, %s: SolveLowerMatrixInto differs from the square factor's", trial, what)
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + int(rng.Uint64n(70))
		a := randomSPD(rng, n)
		lead := 1 + int(rng.Uint64n(uint64(n)))
		fill := func(i int, row []float64) { copy(row, a.Data[i*n:i*n+i+1]) }
		if rng.Uint64n(4) == 0 {
			// A leading block with a zero pivot: both refuse it, empty.
			bad := func(i int, row []float64) {
				fill(i, row)
				if i == lead-1 {
					row[i] = 0
				}
			}
			errP, errS := packed.FactorizeRows(lead, bad), square.factorizeRows(lead, bad)
			if errP != ErrNotSPD || errS != ErrNotSPD {
				t.Fatalf("trial %d: a zero pivot gave %v (packed) and %v (square)", trial, errP, errS)
			}
			refusedFactors++
			compare(trial, "refused FactorizeRows")
		}
		errP, errS := packed.FactorizeRows(lead, fill), square.factorizeRows(lead, fill)
		if errP != nil || errS != nil {
			t.Fatalf("trial %d: FactorizeRows(%d) gave %v (packed) and %v (square)", trial, lead, errP, errS)
		}
		compare(trial, "FactorizeRows")
		for k := lead; k < n; k++ {
			row := append([]float64(nil), a.Data[k*n:k*n+k]...)
			if rng.Uint64n(3) == 0 {
				// A negative diagonal: the pivot comes out negative.
				errP, errS := packed.Extend(row, -1), square.extend(row, -1)
				if errP != ErrIndefinite || errS != ErrIndefinite {
					t.Fatalf("trial %d: a negative pivot gave %v (packed) and %v (square)", trial, errP, errS)
				}
				refusedExtends++
				compare(trial, "refused Extend")
			}
			errP, errS := packed.Extend(row, a.At(k, k)), square.extend(row, a.At(k, k))
			if errP != nil || errS != nil {
				t.Fatalf("trial %d: Extend to %d gave %v (packed) and %v (square)", trial, k+1, errP, errS)
			}
			compare(trial, "Extend")
		}
	}
	if refusedFactors == 0 || refusedExtends == 0 {
		t.Fatalf("%d refused factorizations, %d refused appends: a failure path was not exercised", refusedFactors, refusedExtends)
	}
	t.Logf("%d steps compared, %d refused factorizations, %d refused appends", steps, refusedFactors, refusedExtends)
}

// sameVecBits reports whether a and b hold the same values, bit for bit.
func sameVecBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
