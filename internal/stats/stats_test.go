package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("GeoMean(2,8) = %g, want 4", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("GeoMean(ones) = %g, want 1", got)
	}
	if got := GeoMean([]float64{2, 0}); got != 0 {
		t.Errorf("GeoMean with zero = %g, want 0", got)
	}
	if got := GeoMean([]float64{2, -1}); got != 0 {
		t.Errorf("GeoMean with negative = %g, want 0", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %g, want 0", got)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("HarmonicMean(1,1) = %g", got)
	}
	// Harmonic mean of 2 and 6 is 3.
	if got := HarmonicMean([]float64{2, 6}); !almostEqual(got, 3, 1e-12) {
		t.Errorf("HarmonicMean(2,6) = %g, want 3", got)
	}
	if got := HarmonicMean([]float64{0, 1}); got != 0 {
		t.Errorf("HarmonicMean with zero = %g, want 0", got)
	}
}

func TestMeanInequalityProperty(t *testing.T) {
	// For positive values: harmonic <= geometric <= arithmetic.
	rng := NewRNG(7)
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(10)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = 0.01 + rng.Float64()*10
		}
		h, g, a := HarmonicMean(xs), GeoMean(xs), Mean(xs)
		if h > g+1e-9 || g > a+1e-9 {
			t.Fatalf("mean inequality violated for %v: h=%g g=%g a=%g", xs, h, g, a)
		}
	}
}

func TestVarianceStdDevCoV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %g, want 2", got)
	}
	if got := CoV(xs); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("CoV = %g, want 0.4", got)
	}
	if got := CoV([]float64{0, 0}); got != 0 {
		t.Errorf("CoV of zeros = %g, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %g, want 0", got)
	}
}

func TestCoVScaleInvariantProperty(t *testing.T) {
	// CoV is invariant under positive scaling.
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(8)
		xs := make([]float64, n)
		ys := make([]float64, n)
		k := 0.5 + rng.Float64()*5
		for i := range xs {
			xs[i] = 0.1 + rng.Float64()
			ys[i] = xs[i] * k
		}
		return almostEqual(CoV(xs), CoV(ys), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if got := Min(xs); got != -2 {
		t.Errorf("Min = %g", got)
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min of empty slice should be +Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{10, 20}, 50); !almostEqual(got, 15, 1e-12) {
		t.Errorf("interpolated median = %g, want 15", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %g, want 0", got)
	}
	// Must not mutate input.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %g, want 5", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := NewRNG(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			w.Add(xs[i])
		}
		if w.N() != n {
			t.Fatalf("Welford.N = %d, want %d", w.N(), n)
		}
		if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
			t.Fatalf("Welford mean %g != batch %g", w.Mean(), Mean(xs))
		}
		if !almostEqual(w.Variance(), Variance(xs), 1e-7) {
			t.Fatalf("Welford variance %g != batch %g", w.Variance(), Variance(xs))
		}
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 || w.N() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Sum = %g, want 3", got)
	}
}
