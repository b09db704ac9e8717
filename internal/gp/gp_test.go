package gp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"satori/internal/stats"
)

func TestKernelBasicProperties(t *testing.T) {
	k := Matern52{LengthScale: 0.5, Variance: 2}
	a := []float64{0.1, 0.2}
	b := []float64{0.7, 0.9}
	// k(x, x) = variance.
	if got := k.Eval(a, a); math.Abs(got-2) > 1e-12 {
		t.Errorf("k(x,x) = %g, want 2", got)
	}
	// Symmetry.
	if k.Eval(a, b) != k.Eval(b, a) {
		t.Error("kernel not symmetric")
	}
	// Positivity and decay.
	v := k.Eval(a, b)
	if v <= 0 || v >= 2 {
		t.Errorf("k(a,b) = %g, want in (0, 2)", v)
	}
	// Monotone decay with distance.
	far := []float64{5, 5}
	if k.Eval(a, far) >= v {
		t.Error("kernel does not decay with distance")
	}
	// The closed form at r = 1 with unit scales.
	want := (1 + math.Sqrt(5) + 5.0/3.0) * math.Exp(-math.Sqrt(5))
	if got := (Matern52{LengthScale: 1, Variance: 1}).Eval([]float64{0}, []float64{1}); math.Abs(got-want) > 1e-12 {
		t.Errorf("Matern52(1) = %g, want %g", got, want)
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err != ErrNoData {
		t.Errorf("empty fit err = %v, want ErrNoData", err)
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{1}, {1, 2}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("inconsistent dims accepted")
	}
}

func TestInterpolationAtTrainingPoints(t *testing.T) {
	xs := [][]float64{{0}, {0.5}, {1}}
	ys := []float64{1, 3, 2}
	g, err := Fit(xs, ys, Options{Noise: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mu, sigma := g.Predict(x)
		if math.Abs(mu-ys[i]) > 1e-3 {
			t.Errorf("mean at training point %v = %g, want %g", x, mu, ys[i])
		}
		if sigma > 0.01 {
			t.Errorf("sigma at training point %v = %g, want ~0", x, sigma)
		}
	}
}

func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	xs := [][]float64{{0}, {0.1}, {0.2}}
	ys := []float64{0, 0.1, 0.2}
	g, err := Fit(xs, ys, Options{Kernel: Matern52{LengthScale: 0.2, Variance: 1}, Noise: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	_, near := g.Predict([]float64{0.15})
	_, far := g.Predict([]float64{2})
	if near >= far {
		t.Errorf("sigma near data (%g) >= far from data (%g)", near, far)
	}
	// Far from data the mean reverts to the prior (sample mean of y).
	mu, _ := g.Predict([]float64{100})
	if math.Abs(mu-0.1) > 1e-6 {
		t.Errorf("far-field mean = %g, want prior mean 0.1", mu)
	}
}

func TestPredictMeanMatchesPredict(t *testing.T) {
	rng := stats.NewRNG(4)
	xs := make([][]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = math.Sin(3*xs[i][0]) + xs[i][1]
	}
	g, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := fitIncremental(t, Options{}, xs, ys)
	for i := 0; i < 20; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		mu, _ := g.Predict(x)
		if math.Abs(mu-m.PredictMean(x)) > 1e-9 {
			t.Fatal("Incremental.PredictMean diverges from Fit's Predict")
		}
	}
}

func TestGPLearnsSmoothFunction(t *testing.T) {
	// Fit y = sin(2πx) on a grid and check generalization between knots.
	var xs [][]float64
	var ys []float64
	for i := 0; i <= 20; i++ {
		x := float64(i) / 20
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(2*math.Pi*x))
	}
	g, err := Fit(xs, ys, Options{Kernel: Matern52{LengthScale: 0.3, Variance: 1}, Noise: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x := (float64(i) + 0.5) / 40
		mu, _ := g.Predict([]float64{x})
		want := math.Sin(2 * math.Pi * x)
		if math.Abs(mu-want) > 0.05 {
			t.Errorf("prediction at %g = %g, want %g", x, mu, want)
		}
	}
}

func TestDuplicateInputsHandledViaJitter(t *testing.T) {
	// Identical inputs with different noisy observations must not break
	// the factorization.
	xs := [][]float64{{0.5}, {0.5}, {0.5}, {0.6}}
	ys := []float64{1.0, 1.1, 0.9, 2.0}
	g, err := Fit(xs, ys, Options{Noise: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	mu, _ := g.Predict([]float64{0.5})
	if mu < 0.8 || mu > 1.2 {
		t.Errorf("duplicate-point mean = %g, want near 1.0", mu)
	}
	if g.jitter <= 0 {
		t.Error("jitter should be positive")
	}
}

func TestSinglePoint(t *testing.T) {
	g, err := Fit([][]float64{{0.3, 0.7}}, []float64{5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := g.Predict([]float64{0.3, 0.7})
	if math.Abs(mu-5) > 1e-6 || sigma > 0.05 {
		t.Errorf("single-point posterior at datum: mu=%g sigma=%g", mu, sigma)
	}
}

func TestMedianLengthScale(t *testing.T) {
	// Unit square corners: distances {1,1,1,1,sqrt2,sqrt2}; median = 1.
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	if got := MedianLengthScale(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("MedianLengthScale = %g, want 1", got)
	}
	// Degenerate cases fall back to 1.
	if got := MedianLengthScale(nil); got != 1 {
		t.Errorf("empty input: %g", got)
	}
	if got := MedianLengthScale([][]float64{{1}, {1}}); got != 1 {
		t.Errorf("identical points: %g", got)
	}
}

// TestDefaultKernelIsMatern52: the zero Options.Kernel selects the
// no-tuning heuristics — the median pairwise distance and the floored
// sample variance — and a pinned kernel is used as given.
func TestDefaultKernelIsMatern52(t *testing.T) {
	xs, ys := [][]float64{{0}, {1}, {3}}, []float64{0, 1, 0.5}
	g, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Matern52{LengthScale: 2, Variance: 1.0 / 6}
	if got := g.kernel; math.Abs(got.LengthScale-want.LengthScale) > 1e-12 || math.Abs(got.Variance-want.Variance) > 1e-12 {
		t.Errorf("default kernel = %+v, want %+v", got, want)
	}
	pinned := Matern52{LengthScale: 0.3, Variance: 0.7}
	if g, err = Fit(xs, ys, Options{Kernel: pinned}); err != nil {
		t.Fatal(err)
	}
	if g.kernel != pinned {
		t.Errorf("pinned kernel = %+v, want %+v", g.kernel, pinned)
	}
}

func TestFitDoesNotAliasCallerSlices(t *testing.T) {
	xs := [][]float64{{0.5}}
	ys := []float64{1}
	g, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	xs[0][0] = 99 // mutate the caller's slice
	mu, _ := g.Predict([]float64{0.5})
	if math.Abs(mu-1) > 1e-6 {
		t.Error("GP aliased caller-owned input slice")
	}
}

func TestPosteriorConsistentWithPredict(t *testing.T) {
	rng := stats.NewRNG(18)
	xs := make([][]float64, 12)
	ys := make([]float64, 12)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64()}
		ys[i] = math.Cos(2*xs[i][0]) * xs[i][1]
	}
	g, err := Fit(xs, ys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	points := [][]float64{{0.2, 0.3}, {0.8, 0.1}, {0.5, 0.9}}
	mu, cov := g.Posterior(pointsOf(points))
	for i, x := range points {
		wantMu, wantSigma := g.Predict(x)
		if math.Abs(mu[i]-wantMu) > 1e-9 {
			t.Errorf("point %d: posterior mean %g != Predict %g", i, mu[i], wantMu)
		}
		if math.Abs(math.Sqrt(math.Max(cov.At(i, i), 0))-wantSigma) > 1e-9 {
			t.Errorf("point %d: posterior sqrt-var %g != Predict sigma %g",
				i, math.Sqrt(cov.At(i, i)), wantSigma)
		}
	}
	// Symmetry.
	for i := range points {
		for j := range points {
			if math.Abs(cov.At(i, j)-cov.At(j, i)) > 1e-12 {
				t.Fatal("posterior covariance not symmetric")
			}
		}
	}
}

// TestSelectKthMatchesSort: the median's quickselect returns the order
// statistic a full sort would, on multisets with the heavy duplication
// lattice distances have.
func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(a []float64, ctx string) {
		t.Helper()
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		for _, k := range []int{0, len(a) / 2, len(a) - 1, rng.Intn(len(a))} {
			work := append([]float64(nil), a...)
			if got := selectKth(work, k); got != sorted[k] {
				t.Fatalf("%s: selectKth(len %d, k=%d) = %v, sorted[k] = %v", ctx, len(a), k, got, sorted[k])
			}
			sort.Float64s(work)
			if !slices.Equal(work, sorted) {
				t.Fatalf("%s: selectKth(len %d, k=%d) changed the multiset", ctx, len(a), k)
			}
		}
	}
	for n := 1; n <= 2000; n += 1 + n/40 {
		a := make([]float64, n)
		for _, distinct := range []int{1, 2, 5, n/3 + 1, 4 * n} {
			for i := range a {
				a[i] = math.Sqrt(float64(1 + rng.Intn(distinct)))
			}
			check(a, fmt.Sprintf("%d distinct values", distinct))
		}
		for i := range a {
			a[i] = float64(i)
		}
		check(a, "ascending")
		slices.Reverse(a)
		check(a, "descending")
	}
}
