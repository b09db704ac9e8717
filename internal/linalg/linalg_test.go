package linalg

import (
	"errors"
	"math"
	"testing"

	"satori/internal/stats"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Error("Set/At mismatch")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone shares storage")
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dimensions did not panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestCholeskyKnownFactor(t *testing.T) {
	// A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.LAt(0, 0)-2) > 1e-12 ||
		math.Abs(c.LAt(1, 0)-1) > 1e-12 ||
		math.Abs(c.LAt(1, 1)-math.Sqrt2) > 1e-12 ||
		c.LAt(0, 1) != 0 {
		t.Errorf("wrong factor: L = [[%g %g],[%g %g]]",
			c.LAt(0, 0), c.LAt(0, 1), c.LAt(1, 0), c.LAt(1, 1))
	}
	if c.n != 2 {
		t.Errorf("size = %d", c.n)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3 and -1
	if _, err := NewCholesky(a); err != ErrNotSPD {
		t.Errorf("non-SPD accepted, err = %v", err)
	}
	b := NewMatrix(2, 3)
	if _, err := NewCholesky(b); err == nil {
		t.Error("non-square accepted")
	}
}

// randomSPD builds A = BᵀB + n·I, guaranteed SPD.
func randomSPD(rng *stats.RNG, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += b.At(k, i) * b.At(k, j)
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	return a
}

func TestCholeskySolveProperty(t *testing.T) {
	rng := stats.NewRNG(17)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		bvec := make([]float64, n)
		for i := range bvec {
			for j, v := range x {
				bvec[i] += a.At(i, j) * v
			}
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("SPD matrix rejected: %v", err)
		}
		got := c.SolveVec(bvec)
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				t.Fatalf("solve error at %d: got %g want %g (n=%d)", i, got[i], x[i], n)
			}
		}
	}
}

func TestCholeskyReconstructionProperty(t *testing.T) {
	rng := stats.NewRNG(23)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		// L·Lᵀ must reproduce A.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += c.LAt(i, k) * c.LAt(j, k)
				}
				if math.Abs(s-a.At(i, j)) > 1e-8 {
					t.Fatalf("reconstruction error at (%d,%d): %g vs %g", i, j, s, a.At(i, j))
				}
			}
		}
	}
}

func TestSolveLower(t *testing.T) {
	// L = [[2,0],[1,1]]; L·y = [2, 3] -> y = [1, 2].
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 2) // L = [[2,0],[1,1]]
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	y := c.SolveLower([]float64{2, 3})
	if math.Abs(y[0]-1) > 1e-12 || math.Abs(y[1]-2) > 1e-12 {
		t.Errorf("SolveLower = %v, want [1 2]", y)
	}
}

func TestSolveVecDimMismatchPanics(t *testing.T) {
	a := NewMatrix(1, 1)
	a.Set(0, 0, 1)
	c, _ := NewCholesky(a)
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	c.SolveVec([]float64{1, 2})
}

func TestDotAndSquaredDistance(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	if got := SquaredDistance([]float64{0, 0}, []float64{3, 4}); got != 25 {
		t.Errorf("SquaredDistance = %g, want 25", got)
	}
	for _, fn := range []func(){
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { SquaredDistance([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("dimension mismatch did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestCholeskyExtendMatchesFullFactorization is the property test pinning
// the rank-1 append: growing a factor one row at a time must agree with
// factorizing the full matrix from scratch, across random SPD matrices of
// varied sizes.
func TestCholeskyExtendMatchesFullFactorization(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 25; trial++ {
		n := 2 + int(rng.Uint64n(40))
		a := randomSPD(rng, n)
		full, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: full factorization failed: %v", trial, err)
		}
		// Start from the leading 1x1 block and extend up to n.
		lead := NewMatrix(1, 1)
		lead.Set(0, 0, a.At(0, 0))
		inc, err := NewCholesky(lead)
		if err != nil {
			t.Fatalf("trial %d: leading block failed: %v", trial, err)
		}
		for m := 1; m < n; m++ {
			row := make([]float64, m)
			for j := 0; j < m; j++ {
				row[j] = a.At(m, j)
			}
			if err := inc.Extend(row, a.At(m, m)); err != nil {
				t.Fatalf("trial %d: Extend to %d failed: %v", trial, m+1, err)
			}
		}
		if inc.n != n {
			t.Fatalf("trial %d: extended size %d, want %d", trial, inc.n, n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if d := math.Abs(inc.LAt(i, j) - full.LAt(i, j)); d > 1e-9 {
					t.Fatalf("trial %d: L(%d,%d) differs by %g (extend %g vs full %g)",
						trial, i, j, d, inc.LAt(i, j), full.LAt(i, j))
				}
			}
		}
	}
}

func TestCholeskyExtendRejectsNonSPD(t *testing.T) {
	a := NewMatrix(1, 1)
	a.Set(0, 0, 4)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Appending a row that makes the matrix singular (second point equal
	// to the first: [[4,4],[4,4]] has determinant 0) must fail and leave
	// the factor untouched. The typed ErrIndefinite lets callers trigger a
	// rebuild fallback, and it wraps ErrNotSPD for the broader family.
	err = c.Extend([]float64{4}, 4)
	if !errors.Is(err, ErrIndefinite) {
		t.Fatalf("Extend on singular append: got %v, want ErrIndefinite", err)
	}
	if !errors.Is(err, ErrNotSPD) {
		t.Fatalf("ErrIndefinite does not wrap ErrNotSPD: %v", err)
	}
	if c.n != 1 || c.LAt(0, 0) != 2 {
		t.Errorf("failed Extend modified the factor: size %d, L(0,0)=%g", c.n, c.LAt(0, 0))
	}
}

func TestCholeskyExtendDimMismatchPanics(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Extend with wrong row length did not panic")
		}
	}()
	c.Extend([]float64{1}, 5)
}

// TestCholeskyFactorizeReuse verifies refactorization into existing
// storage: shrinking, growing, and recovering after an ErrNotSPD attempt.
func TestCholeskyFactorizeReuse(t *testing.T) {
	rng := stats.NewRNG(72)
	c := &Cholesky{}
	for _, n := range []int{8, 3, 12, 1, 20} {
		a := randomSPD(rng, n)
		if err := c.Factorize(a); err != nil {
			t.Fatalf("Factorize n=%d: %v", n, err)
		}
		ref, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if c.LAt(i, j) != ref.LAt(i, j) {
					t.Fatalf("n=%d: reused factor differs at (%d,%d)", n, i, j)
				}
			}
		}
	}
	bad := NewMatrix(2, 2) // all zeros: not SPD
	if err := c.Factorize(bad); err != ErrNotSPD {
		t.Fatalf("Factorize on zero matrix: got %v, want ErrNotSPD", err)
	}
	if c.n != 0 {
		t.Errorf("failed Factorize left size %d, want 0", c.n)
	}
	good := randomSPD(rng, 5)
	if err := c.Factorize(good); err != nil {
		t.Fatalf("Factorize after failure: %v", err)
	}
}

func TestSolveIntoMatchesAllocatingVariants(t *testing.T) {
	rng := stats.NewRNG(73)
	for trial := 0; trial < 10; trial++ {
		n := 1 + int(rng.Uint64n(20))
		a := randomSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		dst := make([]float64, n)
		if got, want := c.SolveVecInto(dst, b), c.SolveVec(b); !equalVecs(got, want) {
			t.Fatalf("trial %d: SolveVecInto differs from SolveVec", trial)
		}
		if got, want := c.SolveLowerInto(dst, b), c.SolveLower(b); !equalVecs(got, want) {
			t.Fatalf("trial %d: SolveLowerInto differs from SolveLower", trial)
		}
	}
}

// TestSolveLowerMatrixBitIdenticalToVectorSolve pins the contract batched
// GP scoring depends on: every column of the matrix solve must equal the
// corresponding vector solve bit for bit (== on float64, not a tolerance),
// or batching would perturb the committed goldens.
func TestSolveLowerMatrixBitIdenticalToVectorSolve(t *testing.T) {
	rng := stats.NewRNG(91)
	for trial := 0; trial < 25; trial++ {
		n := 1 + int(rng.Uint64n(24))
		m := 1 + int(rng.Uint64n(40))
		a := randomSPD(rng, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := NewMatrix(n, m)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		dst := c.SolveLowerMatrixInto(NewMatrix(n, m), b)
		col := make([]float64, n)
		want := make([]float64, n)
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				col[i] = b.At(i, j)
			}
			c.SolveLowerInto(want, col)
			for i := 0; i < n; i++ {
				if dst.At(i, j) != want[i] {
					t.Fatalf("trial %d: column %d row %d: matrix solve %v != vector solve %v",
						trial, j, i, dst.At(i, j), want[i])
				}
			}
		}
	}
}

func TestSolveLowerMatrixDimMismatchPanics(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []func(){
		func() { c.SolveLowerMatrixInto(NewMatrix(2, 3), NewMatrix(3, 3)) },
		func() { c.SolveLowerMatrixInto(NewMatrix(2, 2), NewMatrix(2, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("dimension mismatch did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestSolveLowerMatrixAliasedPanics: the sweep reads solved rows of dst
// while rows of b are still to be copied in, so a dst sharing storage with
// b — the same matrix or an overlapping view — is refused outright.
func TestSolveLowerMatrixAliasedPanics(t *testing.T) {
	c, err := NewCholesky(randomSPD(stats.NewRNG(7), 3))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3*4+4)
	b := &Matrix{Rows: 3, Cols: 4, Data: buf[:12]}
	for name, dst := range map[string]*Matrix{
		"same matrix":      b,
		"same storage":     {Rows: 3, Cols: 4, Data: buf[:12]},
		"overlapping view": {Rows: 3, Cols: 4, Data: buf[4:16]},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: aliased dst did not panic", name)
				}
			}()
			c.SolveLowerMatrixInto(dst, b)
		}()
	}
	// Adjacent views of one buffer share nothing and solve normally.
	two := make([]float64, 24)
	c.SolveLowerMatrixInto(&Matrix{Rows: 3, Cols: 4, Data: two[:12]}, &Matrix{Rows: 3, Cols: 4, Data: two[12:]})
}

// TestSolveLowerMatrixZeroColumns: a panel of no columns is a no-op under
// whichever kernels are in use — nothing takes the address of a first
// column that is not there.
func TestSolveLowerMatrixZeroColumns(t *testing.T) {
	c, err := NewCholesky(randomSPD(stats.NewRNG(8), 17))
	if err != nil {
		t.Fatal(err)
	}
	dst := c.SolveLowerMatrixInto(NewMatrix(17, 0), NewMatrix(17, 0))
	if dst.Rows != 17 || dst.Cols != 0 || len(dst.Data) != 0 {
		t.Errorf("zero-column solve returned %dx%d with %d entries", dst.Rows, dst.Cols, len(dst.Data))
	}
	SquaredDistancesInto(nil, nil, []float64{1, 2})
	DotsInto(nil, nil, []float64{1, 2})
}

// TestColumnKernelWrappersCheckLengths: the exported kernels refuse
// operands of mismatched length instead of reading past the shorter one.
func TestColumnKernelWrappersCheckLengths(t *testing.T) {
	for name, fn := range map[string]func(){
		"SquaredDistancesInto": func() { SquaredDistancesInto(make([]float64, 2), make([]float64, 5), make([]float64, 3)) },
		"DotsInto":             func() { DotsInto(make([]float64, 2), make([]float64, 5), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func equalVecs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
