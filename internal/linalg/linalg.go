// Package linalg provides the small dense linear-algebra kernel needed by
// the Gaussian-process proxy model: symmetric positive-definite (SPD)
// factorization via Cholesky, triangular solves, and log-determinants.
//
// Matrices are dense, row-major float64. The package is deliberately
// minimal — it implements exactly what GP regression requires and nothing
// more — but is numerically careful (jitter escalation for
// near-singular kernels lives in package gp, log-determinant computed from
// the Cholesky factor here).
package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// ErrNotSPD is returned when Cholesky factorization encounters a
// non-positive pivot, meaning the matrix is not (numerically) symmetric
// positive definite.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// ErrIndefinite is returned by Extend when the Schur-complement pivot of
// the appended row is not strictly positive. The pivot is computed by
// subtraction (diag − ||w||²), so round-off on a near-duplicate point can
// drive it ≤ 0 even when the exact matrix is SPD; without the typed error
// the NaN from Sqrt would silently poison the factor and every subsequent
// solve. It wraps ErrNotSPD, so errors.Is(err, ErrNotSPD) still holds for
// callers that only care about the SPD family.
var ErrIndefinite = fmt.Errorf("linalg: extension pivot not positive (round-off indefiniteness): %w", ErrNotSPD)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = element (i, j)
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ,
// packed: row i of L, its i+1 entries up to the diagonal, at l[i(i+1)/2:],
// so a factor of n rows holds n(n+1)/2 floats. The factor can grow in
// place: Extend appends one row/column in O(n²) (a rank-1 append), and
// Factorize refactorizes into the existing storage, so long-lived factors
// on a hot path do not reallocate once they have reached their size.
type Cholesky struct {
	n int
	l []float64 // the packed rows
}

// rowAt is where row i of a packed factor starts.
func rowAt(i int) int { return i * (i + 1) / 2 }

// NewCholesky factorizes the SPD matrix a (only the lower triangle is
// read). It returns ErrNotSPD when a pivot is not strictly positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factorize(a); err != nil {
		return nil, err
	}
	return c, nil
}

// Factorize (re)factorizes the SPD matrix a into c, reusing c's storage
// when it is large enough. On error c is left empty; the storage is
// retained for the next attempt.
func (c *Cholesky) Factorize(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	return c.FactorizeRows(n, func(i int, row []float64) { copy(row, a.Data[i*n:i*n+i+1]) })
}

// FactorizeRows (re)factorizes the n×n SPD matrix A whose lower triangle
// fill writes straight into c's storage: fill(i, row) sets row[j] = A(i, j)
// for j ≤ i, and row i is factored in place as soon as it is written. The
// factor's row i depends on A's row i and the factor's earlier rows alone,
// so this is Factorize's computation — the same operations in the same
// order, hence the same bits — without a copy of A. On error c is left
// empty; the storage is retained for the next attempt.
func (c *Cholesky) FactorizeRows(n int, fill func(i int, row []float64)) error {
	c.n = 0
	c.reserve(n)
	l := c.l
	for i := 0; i < n; i++ {
		at := rowAt(i)
		row := l[at : at+i+1 : at+i+1]
		fill(i, row)
		for j := range row {
			lj := l[rowAt(j):][:j+1]
			sum := row[j]
			for k := 0; k < j; k++ {
				sum -= row[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotSPD
				}
				row[j] = math.Sqrt(sum)
			} else {
				row[j] = sum / lj[j]
			}
		}
	}
	c.n = n
	return nil
}

// reserve ensures storage for n packed rows, keeping the factor's current
// ones. A new buffer grows as append grows one, so a factor that gains a
// row per Extend reallocates a logarithmic number of times.
func (c *Cholesky) reserve(n int) {
	keep := rowAt(c.n)
	c.l = slices.Grow(c.l[:keep], rowAt(n)-keep)[:rowAt(n)]
}

// Extend appends one row/column to the factored matrix in O(n²): given
// row[i] = A(n, i) against the existing points and diag = A(n, n), it
// computes the new factor row by one forward solve plus a scalar pivot.
// This is the rank-1 append that keeps the GP proxy model's per-tick cost
// quadratic instead of cubic. It returns ErrIndefinite (leaving the factor
// unchanged) when the extended matrix loses positive definiteness; window
// eviction is handled by refactorization (Factorize), not downdating.
func (c *Cholesky) Extend(row []float64, diag float64) error {
	if len(row) != c.n {
		panic(fmt.Sprintf("linalg: Extend dimension mismatch: %d vs %d", len(row), c.n))
	}
	n := c.n
	c.reserve(n + 1)
	l := c.l
	// New off-diagonal entries: w = L⁻¹·row (forward substitution),
	// written directly into the appended row.
	w := l[rowAt(n) : rowAt(n)+n+1]
	for i := 0; i < n; i++ {
		li := l[rowAt(i):][:i+1]
		sum := row[i]
		for k := 0; k < i; k++ {
			sum -= li[k] * w[k]
		}
		w[i] = sum / li[i]
	}
	// New pivot: L(n,n)² = diag − ||w||².
	pivot := diag
	for k := 0; k < n; k++ {
		pivot -= w[k] * w[k]
	}
	if pivot <= 0 || math.IsNaN(pivot) {
		return ErrIndefinite
	}
	w[n] = math.Sqrt(pivot)
	c.n = n + 1
	return nil
}

// LAt returns element (i, j) of the lower-triangular factor L
// (0 above the diagonal).
func (c *Cholesky) LAt(i, j int) float64 {
	if j > i {
		return 0
	}
	return c.l[rowAt(i)+j]
}

// SolveVec solves A·x = b using the factorization (forward then backward
// substitution). b is not modified.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecInto(make([]float64, c.n), b)
}

// SolveVecInto solves A·x = b into dst, which must have the factor's size and
// may not alias b. No allocations: the backward pass runs in place on the
// forward pass's result.
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("linalg: SolveVec dimension mismatch: %d vs %d", len(b), c.n))
	}
	c.SolveLowerInto(dst, b)
	n, l := c.n, c.l
	for i := n - 1; i >= 0; i-- {
		sum := dst[i]
		for k := i + 1; k < n; k++ {
			sum -= l[rowAt(k)+i] * dst[k]
		}
		dst[i] = sum / l[rowAt(i)+i]
	}
	return dst
}

// SolveLower solves L·y = b by forward substitution. b is not modified.
func (c *Cholesky) SolveLower(b []float64) []float64 {
	return c.SolveLowerInto(make([]float64, c.n), b)
}

// SolveLowerInto solves L·y = b into dst, which must have the factor's size and
// may not alias b. No allocations.
func (c *Cholesky) SolveLowerInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("linalg: SolveLower dimension mismatch: %d vs %d", len(b), c.n))
	}
	n, l := c.n, c.l
	for i := 0; i < n; i++ {
		li := l[rowAt(i):][:i+1]
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= li[k] * dst[k]
		}
		dst[i] = sum / li[i]
	}
	return dst
}

// SolveLowerMatrixInto solves L·Y = B for an n×m right-hand-side matrix B
// by forward substitution, amortizing one traversal of the factor over all
// m columns (the BLAS-3 trsm shape). dst must be n×m and must not share
// storage with b: the sweep reads solved rows of dst while b's rows are
// still to come, so an aliased call is a bug and panics.
//
// Column c of the result is bit-identical to SolveLowerInto(dst, B[:,c]):
// per column, row i is b[i,c] minus l[i,k]·y[k,c] for k ascending, then
// divided by the pivot — the exact operation sequence of the vector solve —
// so batched callers can replace per-candidate solves without perturbing
// goldens. Each row is one solveRow call over the rows solved before it.
func (c *Cholesky) SolveLowerMatrixInto(dst, b *Matrix) *Matrix {
	if b.Rows != c.n {
		panic(fmt.Sprintf("linalg: SolveLowerMatrix dimension mismatch: %d rows vs factor size %d", b.Rows, c.n))
	}
	if dst.Rows != b.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: SolveLowerMatrix dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, b.Rows, b.Cols))
	}
	if overlaps(dst.Data, b.Data) {
		panic("linalg: SolveLowerMatrix dst shares storage with b")
	}
	n, l, m := c.n, c.l, b.Cols
	for i := 0; i < n; i++ {
		at := rowAt(i)
		kern.solveRow(dst.Data[i*m:i*m+m], b.Data[i*m:i*m+m], dst.Data[:i*m], l[at:at+i], l[at+i])
	}
	return dst
}

// overlaps reports whether two slices share any element.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, a1 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&a[len(a)-1]))
	b0, b1 := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&b[len(b)-1]))
	return a0 <= b1 && b0 <= a1
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch: %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// SquaredDistance returns ||a−b||².
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SquaredDistance dimension mismatch: %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
