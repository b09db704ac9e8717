// Package gp implements Gaussian-process regression — the stochastic proxy
// model M(x) at the heart of SATORI's Bayesian-optimization engine
// (Sec. III-A). For every candidate configuration the posterior provides a
// predicted mean and an uncertainty (standard deviation); the acquisition
// function in package bo combines the two.
//
// The default kernel is Matérn 5/2, the paper's choice; RBF and Matérn 3/2
// are also provided. Fitting is exact GP regression via Cholesky
// factorization with automatic jitter escalation for numerical safety, and
// an optional median-distance length-scale heuristic so no offline
// hyperparameter tuning is required (consistent with SATORI's
// no-offline-profiling design goal).
package gp

import (
	"errors"
	"fmt"
	"math"

	"satori/internal/linalg"
)

// Kernel is a positive-definite covariance function over input vectors.
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) float64
	// Name identifies the kernel for logs.
	Name() string
}

// Matern52 is the Matérn covariance kernel with smoothness ν = 5/2, the
// proxy-model kernel used by SATORI.
type Matern52 struct {
	// LengthScale l > 0 controls how quickly correlation decays with
	// input distance.
	LengthScale float64
	// Variance σ² > 0 scales the kernel.
	Variance float64
}

// Eval implements Kernel.
func (k Matern52) Eval(a, b []float64) float64 {
	r := math.Sqrt(linalg.SquaredDistance(a, b)) / k.LengthScale
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

// Name implements Kernel.
func (k Matern52) Name() string { return "matern52" }

// Matern32 is the Matérn kernel with ν = 3/2 (rougher sample paths).
type Matern32 struct {
	LengthScale float64
	Variance    float64
}

// Eval implements Kernel.
func (k Matern32) Eval(a, b []float64) float64 {
	r := math.Sqrt(linalg.SquaredDistance(a, b)) / k.LengthScale
	s3r := math.Sqrt(3) * r
	return k.Variance * (1 + s3r) * math.Exp(-s3r)
}

// Name implements Kernel.
func (k Matern32) Name() string { return "matern32" }

// RBF is the squared-exponential kernel (infinitely smooth sample paths).
type RBF struct {
	LengthScale float64
	Variance    float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b []float64) float64 {
	return k.Variance * math.Exp(-linalg.SquaredDistance(a, b)/(2*k.LengthScale*k.LengthScale))
}

// Name implements Kernel.
func (k RBF) Name() string { return "rbf" }

// ErrNoData is returned when fitting with no observations.
var ErrNoData = errors.New("gp: no observations to fit")

// GP is a fitted Gaussian-process posterior.
type GP struct {
	kernel Kernel

	xs     [][]float64
	alpha  []float64 // K⁻¹(y − mean)
	chol   *linalg.Cholesky
	mean   float64 // constant prior mean (set to the sample mean of y)
	jitter float64 // jitter that was needed for factorization
}

// Options configures Fit.
type Options struct {
	// Kernel defaults to Matern52 with heuristic length scale when nil.
	Kernel Kernel
	// Noise is the observation noise variance; defaults to 1e-4, which
	// matches ~1% measurement noise on objectives scaled to [0, 1].
	Noise float64
}

// Fit performs exact GP regression on observations (xs[i], ys[i]). All
// inputs must share one dimensionality. A constant prior mean equal to the
// sample mean of ys is used so predictions far from data revert to the
// average observed objective rather than to zero.
func Fit(xs [][]float64, ys []float64, opt Options) (*GP, error) {
	n := len(xs)
	if n == 0 {
		return nil, ErrNoData
	}
	if len(ys) != n {
		return nil, fmt.Errorf("gp: %d inputs but %d observations", n, len(ys))
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			return nil, fmt.Errorf("gp: input %d has dim %d, want %d", i, len(x), dim)
		}
	}
	noise := opt.Noise
	if noise <= 0 {
		noise = 1e-4
	}
	mean := sampleMean(ys)

	kernel := opt.Kernel
	if kernel == nil {
		// No-tuning heuristics: length scale from the median pairwise
		// input distance, signal variance from the sample variance of
		// the observations (floored so a flat initial design still
		// yields a usable prior). This keeps posterior uncertainty on
		// the same scale as the data, which Expected Improvement
		// depends on.
		ls, _ := medianLengthScaleInto(nil, xs)
		kernel = Matern52{LengthScale: ls, Variance: flooredVariance(ys, mean)}
	}

	// Build the kernel matrix K + noise·I; escalate jitter on failure.
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(xs[i], xs[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	var chol *linalg.Cholesky
	var err error
	jitter := 0.0
	for attempt, j := 0, noise; attempt < 8; attempt, j = attempt+1, j*10 {
		kj := k.Clone()
		for i := 0; i < n; i++ {
			kj.Set(i, i, kj.At(i, i)+j)
		}
		chol, err = linalg.NewCholesky(kj)
		if err == nil {
			jitter = j
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("gp: kernel matrix not factorizable even with jitter: %w", err)
	}

	centered := make([]float64, n)
	for i, y := range ys {
		centered[i] = y - mean
	}
	g := &GP{
		kernel: kernel,
		xs:     cloneInputs(xs),
		alpha:  chol.SolveVec(centered),
		chol:   chol,
		mean:   mean,
		jitter: jitter,
	}
	return g, nil
}

func cloneInputs(xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = make([]float64, len(x))
		copy(out[i], x)
	}
	return out
}

// PredictScratch is caller-owned workspace for zero-allocation batched
// prediction (see predictBatch). The zero value is ready to use; buffers
// grow on first use and are reused afterwards. A scratch must not be
// shared between concurrent predictions.
type PredictScratch struct {
	// kmat holds the n×m cross-covariance block of a stateless
	// PredictBatchInto or PredictMeansInto, panel the triangular solve of one
	// panelWidth-column slice of it, and pt that slice's query points
	// transposed dim-major for the staged fill. zeros stays all zero: the
	// origin the squared norms of the solved panel are distances from.
	kmat  []float64
	panel []float64
	pt    []float64
	zeros []float64
}

// Predict returns the posterior mean and standard deviation at x — the
// textbook per-point computation the batched and incremental routines are
// tested against.
func (g *GP) Predict(x []float64) (mu, sigma float64) {
	kstar := make([]float64, len(g.xs))
	for i, xi := range g.xs {
		kstar[i] = g.kernel.Eval(x, xi)
	}
	mu = g.mean + linalg.Dot(kstar, g.alpha)
	// σ² = k(x,x) − k*ᵀ K⁻¹ k*, computed via the triangular solve
	// v = L⁻¹ k* so that k*ᵀK⁻¹k* = vᵀv.
	v := g.chol.SolveLower(kstar)
	variance := g.kernel.Eval(x, x) - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mu, math.Sqrt(variance)
}

// Posterior returns the joint posterior mean vector and covariance matrix
// over a set of query points — the ingredients for Thompson sampling and
// other batch acquisitions. cov[i][j] = k(xi,xj) − v_iᵀv_j with
// v_i = L⁻¹k*(xi), the m solves fused into one matrix triangular sweep.
func (g *GP) Posterior(points [][]float64) (mu []float64, cov *linalg.Matrix) {
	return posteriorBatch(points, g.xs, g.alpha, g.chol, g.kernel, g.mean)
}

// Jitter returns the diagonal jitter that was required to factorize the
// kernel matrix (equal to the noise term when no escalation was needed).
func (g *GP) Jitter() float64 { return g.jitter }

// Kernel returns the kernel the model was fitted with.
func (g *GP) Kernel() Kernel { return g.kernel }

// MedianLengthScale returns the median pairwise Euclidean distance between
// inputs — a standard no-tuning heuristic for the kernel length scale. It
// falls back to 1 when there are fewer than two distinct points.
func MedianLengthScale(xs [][]float64) float64 {
	ls, _ := medianLengthScaleInto(nil, xs)
	return ls
}

// medianLengthScaleInto is MedianLengthScale with a reusable distance
// buffer (returned grown so callers can keep it across refreshes).
func medianLengthScaleInto(dists []float64, xs [][]float64) (float64, []float64) {
	dists = dists[:0]
	// Cap the O(n²) pair scan; beyond a few hundred points the median
	// is already stable.
	limit := len(xs)
	if limit > 256 {
		limit = 256
	}
	for i := 0; i < limit; i++ {
		for j := i + 1; j < limit; j++ {
			d := math.Sqrt(linalg.SquaredDistance(xs[i], xs[j]))
			if d > 0 {
				dists = append(dists, d)
			}
		}
	}
	if len(dists) == 0 {
		return 1, dists
	}
	return selectKth(dists, len(dists)/2), dists
}

// selectKth returns the element that sorting a ascending would leave at
// index k, reordering a in place (quickselect, median-of-three pivots):
// the median needs one order statistic, not the whole order.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		// Order a[lo] <= a[mid] <= a[hi]; a[mid] is the pivot and the ends
		// are sentinels for the scans below.
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= pivot <= a[i..hi], and anything between j and i
		// equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// sampleMean returns the average of ys (the GP's constant prior mean).
func sampleMean(ys []float64) float64 {
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	return mean / float64(len(ys))
}

// flooredVariance is the no-tuning signal-variance heuristic: the sample
// variance of the observations, floored at (0.1)². Objectives in this
// repository live on a [0, 1] scale, and a clustered initial design
// (e.g. SATORI's low-imbalance S_init) would otherwise collapse the prior
// uncertainty and choke off exploration.
func flooredVariance(ys []float64, mean float64) float64 {
	v := 0.0
	for _, y := range ys {
		d := y - mean
		v += d * d
	}
	v /= float64(len(ys))
	if v < 0.01 {
		v = 0.01
	}
	return v
}
