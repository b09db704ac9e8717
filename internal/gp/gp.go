// Package gp implements Gaussian-process regression — the stochastic proxy
// model M(x) at the heart of SATORI's Bayesian-optimization engine
// (Sec. III-A). For every candidate configuration the posterior provides a
// predicted mean and an uncertainty (standard deviation); the acquisition
// function in package bo combines the two.
//
// The kernel is Matérn 5/2, the paper's choice. Fitting is exact GP
// regression via Cholesky factorization with automatic jitter escalation
// for numerical safety, and an optional median-distance length-scale
// heuristic so no offline hyperparameter tuning is required (consistent
// with SATORI's no-offline-profiling design goal).
package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"weak"

	"satori/internal/linalg"
)

// Matern52 is the Matérn covariance kernel with smoothness ν = 5/2, the
// proxy-model kernel used by SATORI and the only one this package has.
type Matern52 struct {
	// LengthScale l > 0 controls how quickly correlation decays with
	// input distance.
	LengthScale float64
	// Variance σ² > 0 scales the kernel.
	Variance float64
}

// Eval returns k(a, b).
func (k Matern52) Eval(a, b []float64) float64 {
	r := math.Sqrt(linalg.SquaredDistance(a, b)) / k.LengthScale
	s5r := math.Sqrt(5) * r
	return k.Variance * (1 + s5r + 5*r*r/3) * math.Exp(-s5r)
}

// ErrNoData is returned when fitting with no observations.
var ErrNoData = errors.New("gp: no observations to fit")

// GP is a fitted Gaussian-process posterior.
type GP struct {
	kernel Matern52

	xs     [][]float64
	alpha  []float64 // K⁻¹(y − mean)
	chol   *linalg.Cholesky
	mean   float64 // constant prior mean (set to the sample mean of y)
	jitter float64 // jitter that was needed for factorization
}

// Options configures Fit.
type Options struct {
	// Kernel pins the kernel; the zero value selects the no-tuning
	// heuristics (median-distance length scale, floored sample variance).
	Kernel Matern52
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
	if kernel == (Matern52{}) {
		// No-tuning heuristics: length scale from the median pairwise
		// input distance, signal variance from the sample variance of
		// the observations (floored so a flat initial design still
		// yields a usable prior). This keeps posterior uncertainty on
		// the same scale as the data, which Expected Improvement
		// depends on.
		kernel = Matern52{LengthScale: MedianLengthScale(xs), Variance: flooredVariance(ys, mean)}
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

// PredictScratch is workspace for zero-allocation batched prediction (see
// predictBatch). The zero value is ready to use; buffers grow on first use
// and are reused afterwards. A scratch must not be shared between
// concurrent predictions, and no call leaves anything in it that a later
// call reads, except that PredictSigmasInto and SigmaCeilingsInto finish
// the points PredictMeansInto filled (its spare block buffers are storage,
// their contents never read). So between such calls a scratch can serve
// any model: TakeScratch lends one from a list that every model shares.
type PredictScratch struct {
	// kmat holds the n×m cross-covariance block of a stateless
	// PredictBatchInto or PredictMeansInto, and panel the triangular solve
	// of one panelWidth-column slice of it, or the working rows of a fill,
	// or the median's pair list. zeros stays all zero: the origin the
	// squared norms of the solved panel are distances from.
	kmat  []float64
	panel []float64
	zeros []float64
	// post holds a caller's posterior over its pool (PoolPosterior), and in
	// a caller's model inputs (Inputs), rows cut from inData. No call of
	// this package writes either.
	post   []float64
	in     [][]float64
	inData []float64
	// spares holds the storage of blocks handed back (Recycle), for the
	// block fills that need more than their own (blockData).
	spares [maxSpares][]float64
	// Points holds query points laid out for the fill: the ones
	// PredictBatchInto was handed, or a caller's own.
	Points Points
	// ref is how the free list holds a scratch TakeScratch made.
	ref weak.Pointer[PredictScratch]
}

// scratches is the free list TakeScratch lends from. A scratch in use is
// off it; one on it is held weakly, so a collection frees every scratch no
// prediction is using: memory a search needs only while it scores is not
// kept by a process that has stopped scoring. A list and not a sync.Pool,
// whose victim cache keeps idle scratches through a collection.
var scratches struct {
	sync.Mutex
	free []weak.Pointer[PredictScratch]
}

// TakeScratch lends a scratch off the shared free list, or a new one when
// every scratch is in use or was collected; Release returns it. Its
// buffers keep the size the largest call since it was made gave them.
func TakeScratch() *PredictScratch {
	scratches.Lock()
	defer scratches.Unlock()
	for n := len(scratches.free); n > 0; n-- {
		ref := scratches.free[n-1]
		scratches.free = scratches.free[:n-1]
		if s := ref.Value(); s != nil {
			return s
		}
	}
	s := new(PredictScratch)
	s.ref = weak.Make(s)
	return s
}

// Release returns s, which TakeScratch lent, to the free list; s must not
// be used after.
func (s *PredictScratch) Release() {
	scratches.Lock()
	scratches.free = append(scratches.free, s.ref)
	scratches.Unlock()
}

// PoolPosterior returns n μ slots and n σ slots for a caller's pool, from
// storage the scratch keeps for it. Nothing writes them but the caller:
// they hold what the last caller of the same n left, which between two
// takes of a shared scratch may be another model's.
func (s *PredictScratch) PoolPosterior(n int) (mu, sigma []float64) {
	s.post = grow(s.post, 2*n)
	return s.post[:n:n], s.post[n : 2*n : 2*n]
}

// Inputs returns n rows of dim floats for a caller's model inputs, the xs
// of a Reset or the x of an Append, which copy them: a model keeps no
// caller's row, so the caller need not keep one either. Nothing writes them
// but the caller.
func (s *PredictScratch) Inputs(n, dim int) [][]float64 {
	s.inData = grow(s.inData, n*dim)
	s.in = s.in[:0]
	for i := range n {
		s.in = append(s.in, s.inData[i*dim:(i+1)*dim:(i+1)*dim])
	}
	return s.in
}

// maxSpares is how many block buffers a scratch keeps: a tick fills at most
// three blocks, one per top configuration.
const maxSpares = 3

// Recycle takes b's storage into s as a spare and leaves b empty, as if
// never filled: a caller that knows no later call reads b's K* (the model's
// kernel epoch is about to move) hands the buffer on instead of keeping it.
func (s *PredictScratch) Recycle(b *Block) {
	s.spare(b.data)
	b.epoch, b.data = 0, nil
}

// Trim leaves b, which its caller keeps past the tick, holding at most
// twice the storage its data takes. A block filled into a larger spare
// (blockData) moves its data into storage of its own size, and the spare
// goes back to s as Recycle hands it. b reads as before, to the bit.
func (s *PredictScratch) Trim(b *Block) {
	if cap(b.data) <= 2*len(b.data) {
		return
	}
	old := b.data
	b.data = append([]float64(nil), old...)
	s.spare(old)
}

// spare keeps buf in s when it is larger than the smallest spare held. The
// scratch keeps the maxSpares largest: a buffer smaller than every one it
// holds is dropped, so that the spares fit the blocks that come.
func (s *PredictScratch) spare(buf []float64) {
	at := 0 // the smallest spare, an empty slot first
	for i, sp := range s.spares {
		if cap(sp) < cap(s.spares[at]) {
			at = i
		}
	}
	if cap(buf) > cap(s.spares[at]) {
		s.spares[at] = buf[:0]
	}
}

// blockData returns storage for the data of a block of q points over n
// inputs: b's own when large enough, else the smallest spare that is, else a
// new buffer. Contents are not preserved, but a spare's tail — where the σ,
// projections, extremes and stamps go — comes out zeroed as a new buffer's
// does, so a block never starts from another block's stamps.
func (s *PredictScratch) blockData(b *Block, n, q int) []float64 {
	size := blockLen(n, q)
	if cap(b.data) >= size {
		return b.data[:size]
	}
	at := -1
	for i, sp := range s.spares {
		if cap(sp) >= size && (at < 0 || cap(sp) < cap(s.spares[at])) {
			at = i
		}
	}
	if at < 0 {
		return grow(nil, size)
	}
	data := s.spares[at][:size]
	s.spares[at] = nil
	clear(data[n*q:])
	return data
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
func (g *GP) Posterior(pts *Points) (mu []float64, cov *linalg.Matrix) {
	return posteriorBatch(pts, g.xs, g.alpha, g.chol, g.kernel, g.mean)
}

// medianScanCap caps the O(n²) pair scan of the median heuristic to the
// first 256 points; beyond a few hundred points the median is already
// stable.
const medianScanCap = 256

// MedianLengthScale returns the median pairwise Euclidean distance between
// inputs — a standard no-tuning heuristic for the kernel length scale —
// over the pairs among the first medianScanCap of them. It falls back to 1
// when there are fewer than two distinct points.
func MedianLengthScale(xs [][]float64) float64 {
	var dists []float64
	limit := min(len(xs), medianScanCap)
	for i := 0; i < limit; i++ {
		for j := i + 1; j < limit; j++ {
			d := math.Sqrt(linalg.SquaredDistance(xs[i], xs[j]))
			if d > 0 {
				dists = append(dists, d)
			}
		}
	}
	if len(dists) == 0 {
		return 1
	}
	return selectKth(dists, len(dists)/2)
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
