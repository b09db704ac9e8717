// Batched posterior prediction: score a whole candidate pool against the
// shared Cholesky factor with matrix-level triangular solves.
//
// Scoring one candidate at a time (GP.Predict) pays an O(n²) forward solve
// per query whose subtract-accumulate chain is latency-bound; amortizing
// one traversal of the factor over a panel of pool columns turns the same
// flops into contiguous throughput-bound sweeps
// (linalg.SolveLowerMatrixInto). The arithmetic per candidate is a fixed
// sequence — kernel evaluations, k-ascending subtractions, divisions, and
// row-ascending accumulation for the mean and variance dots — that depends
// on neither the candidate's pool position nor its pool mates, so a
// candidate scores to the same bits wherever it is pooled. The property
// tests in batch_test.go pin that with == comparisons, and agreement with
// GP.Predict to 1e-9.
//
// Of a scored point, only the mean depends on the targets. A Block keeps
// the rest — K* columns and standard deviations — so that a group of
// points scored again under the same kernel epoch (see Incremental) costs
// one K*ᵀα product; epoch_test.go pins that reuse with == as well.

package gp

import (
	"fmt"
	"math"

	"satori/internal/linalg"
)

// PredictBatchInto scores all query points into mu and sigma (each of
// length len(points)) using one matrix-level triangular solve per panel of
// panelWidth points. After the scratch has grown to the model×pool size it
// performs no allocations.
func (m *Incremental) PredictBatchInto(s *PredictScratch, mu, sigma []float64, points [][]float64) {
	s.kmat = grow(s.kmat, m.n*len(points))
	m.predictBatch(s, s.kmat, mu, sigma, points)
}

// PredictMeansInto is the first half of PredictBatchInto: it fills the
// points' cross-covariances into s and writes their posterior means into mu.
// PredictSigmasInto finishes the same points from s; SigmaCeiling bounds
// their σ before that.
func (m *Incremental) PredictMeansInto(s *PredictScratch, mu []float64, points [][]float64) {
	q := len(points)
	if len(mu) != q {
		panic(fmt.Sprintf("gp: PredictMeansInto got %d mu for %d points", len(mu), q))
	}
	s.kmat = grow(s.kmat, m.n*q)
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		m.fillPanel(s, s.kmat[m.n*p0:m.n*p1], mu[p0:p1], points[p0:p1])
	}
}

// PredictSigmasInto is the second half of PredictBatchInto: the posterior
// standard deviations of the points PredictMeansInto last filled into s,
// which must be the points passed here.
func (m *Incremental) PredictSigmasInto(s *PredictScratch, sigma []float64, points [][]float64) {
	q := len(points)
	if len(sigma) != q || len(s.kmat) != m.n*q {
		panic(fmt.Sprintf("gp: PredictSigmasInto got %d sigma for %d points, %d filled", len(sigma), q, len(s.kmat)/max(m.n, 1)))
	}
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		m.solvePanel(s, s.kmat[m.n*p0:m.n*p1], sigma[p0:p1])
	}
}

// PriorSigma returns √k(x, x) of the model's kernel, which no σ the model
// computes exceeds (k(x, x) minus a squared norm, rounded monotonically).
func (m *Incremental) PriorSigma() float64 {
	return math.Sqrt(m.kernel.Variance)
}

// SigmaCeiling returns a bound on the σ PredictSigmasInto computes for
// point c of those PredictMeansInto last filled into s, from that point's
// cross-covariances alone: σ² <= k(x,x) − max_j k_j²/(k(x,x) + jitter), by
// Cauchy–Schwarz in the inner product of the matrix the computed factor
// inverts, raised by a margin relative to k(x,x) that covers the solve's
// backward error (DESIGN.md §4). It is NaN when a cross-covariance is.
func (m *Incremental) SigmaCeiling(s *PredictScratch, c int) float64 {
	n := m.n
	q := len(s.kmat) / n
	p0 := c - c%panelWidth
	w := min(panelWidth, q-p0)
	col := s.kmat[n*p0+c-p0:]
	near := 0.0
	for i := 0; i < n; i++ {
		v := col[i*w]
		near = max(near, v*v)
	}
	kxx := m.kernel.Variance
	v := kxx - near/(kxx+m.jitter) + float64(n+4)*0x1p-48*kxx
	return math.Sqrt(max(v, 0))
}

// Block is what scoring one group of query points leaves behind that the
// model's targets cannot change: the cross-covariance columns K* and the
// posterior standard deviations, functions of the window inputs, the
// kernel and the factor only. While the model's kernel epoch stands,
// RepredictBlockInto re-scores the group from it in O(n) per point. The
// zero value is an empty block; a block belongs to one model and one
// fixed group of points.
type Block struct {
	epoch uint64 // the model's kernel epoch at the last PredictBlockInto; 0 = never filled
	kstar []float64
	sigma []float64
}

// PredictBlockInto is PredictBatchInto keeping the group's kernel-only
// results in b for RepredictBlockInto.
func (m *Incremental) PredictBlockInto(s *PredictScratch, b *Block, mu, sigma []float64, points [][]float64) {
	b.kstar = grow(b.kstar, m.n*len(points))
	m.predictBatch(s, b.kstar, mu, sigma, points)
	b.sigma = append(b.sigma[:0], sigma...)
	b.epoch = m.epoch
}

// RepredictBlockInto re-scores the points b was last filled for under the
// model's current targets: sigma is copied from b and mu recomputed as
// mean + K*ᵀα, both bit-identical to a fresh PredictBatchInto. It reports
// false, writing nothing, when b is stale — the model's inputs, kernel or
// factor changed since b was filled — or was filled for a group of another
// size than len(mu).
func (m *Incremental) RepredictBlockInto(b *Block, mu, sigma []float64) bool {
	q := len(b.sigma)
	if b.epoch != m.epoch || len(mu) != q || len(sigma) != q {
		return false
	}
	copy(sigma, b.sigma)
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		panelMeans(mu[p0:p1], b.kstar[m.n*p0:m.n*p1], m.alpha, m.mean)
	}
	return true
}

// panelWidth is how many query points share one triangular sweep. The
// solve's working set — the factor plus two n×panelWidth panels — then
// stays cache-resident at the engine's window of 64, and the solve
// workspace no longer grows with the pool.
const panelWidth = 32

// grow returns buf resized to n entries, reallocating only when it is too
// small (contents are not preserved). A new buffer keeps the whole size
// class the allocator rounds n up to, as append does: the runtime charges
// the heap for the class either way, so the slack is free, and a window
// that gains a row per tick reallocates once per class, not once per row.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = append([]float64(nil), make([]float64, n)...)
	}
	return buf[:n]
}

// predictBatch is the batch-scoring kernel behind PredictBlockInto. The
// pool is cut into panels of at most panelWidth points; panel p's
// cross-covariances are kept as an n×w row-major matrix at
// kstar[n·p·panelWidth:], so kstar (n·len(points) entries) can outlive the
// call. Each panel is filled and then solved while it is still in cache;
// PredictMeansInto and PredictSigmasInto run the same two stages, one over
// every panel before the other. Every stage accumulates per point in the
// order GP.Predict does: kstar entries are independent; the matrix solve's
// column c replays SolveLowerInto exactly (columns are independent, so the
// panel cut does not show); the mean and squared-norm accumulators run
// over model rows in ascending order, matching linalg.Dot.
func (m *Incremental) predictBatch(s *PredictScratch, kstar, mu, sigma []float64, points [][]float64) {
	q := len(points)
	if len(mu) != q || len(sigma) != q {
		panic(fmt.Sprintf("gp: PredictBatch got %d mu and %d sigma for %d points", len(mu), len(sigma), q))
	}
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		kpanel := kstar[m.n*p0 : m.n*p1]
		m.fillPanel(s, kpanel, mu[p0:p1], points[p0:p1])
		m.solvePanel(s, kpanel, sigma[p0:p1])
	}
}

// fillPanel writes one panel's cross-covariances into kpanel (n×len(pts),
// row-major) and the points' posterior means into mu.
func (m *Incremental) fillPanel(s *PredictScratch, kpanel, mu []float64, pts [][]float64) {
	kmat := linalg.Matrix{Rows: m.n, Cols: len(pts), Data: kpanel}
	fillRowsMatern52(s, &kmat, m.xbuf[:m.n], pts, m.kernel)
	panelMeans(mu, kpanel, m.alpha, m.mean)
}

// solvePanel writes the posterior standard deviations of one panel whose
// cross-covariances fillPanel left in kpanel.
func (m *Incremental) solvePanel(s *PredictScratch, kpanel, sigma []float64) {
	n, w := m.n, len(sigma)
	s.panel = grow(s.panel, n*w)
	s.zeros = grow(s.zeros, n) // nothing writes it: fresh or reused, all zero
	// One triangular sweep for the whole panel: V = L⁻¹·K*.
	kmat := linalg.Matrix{Rows: n, Cols: w, Data: kpanel}
	vmat := linalg.Matrix{Rows: n, Cols: w, Data: s.panel}
	m.chol.SolveLowerMatrixInto(&vmat, &kmat)
	// Squared norms ‖v_c‖², rows ascending, into sigma: the squared
	// distance of v_c from the origin, since v − 0 is exactly v.
	linalg.SquaredDistancesInto(sigma, vmat.Data, s.zeros)
	// k(x, x) is exactly Variance: at zero distance r = 0 and exp(-0) = 1,
	// so the value is bit-identical to Eval(x, x).
	kxx := m.kernel.Variance
	for c := range sigma {
		variance := kxx - sigma[c]
		if variance < 0 {
			variance = 0
		}
		sigma[c] = math.Sqrt(variance)
	}
}

// panelMeans writes the posterior means mu_c = mean + Σ_i k*_ic·α_i of one
// n×len(mu) cross-covariance panel, rows ascending (linalg.Dot's order).
func panelMeans(mu, kpanel, alpha []float64, mean float64) {
	linalg.DotsInto(mu, kpanel, alpha)
	for c := range mu {
		mu[c] = mean + mu[c]
	}
}

// fillRowsMatern52 is the cross-covariance fill: per model row, a
// squared-distance sweep over the dim-major transposed points and the
// Matérn transform of that row, both linalg column kernels. Each element's
// value is Matern52.Eval's expression sequence — the squared distance still
// sums dimension-ascending per element, the transform is Eval's formula
// with math.Exp's own rounding — so splitting the loops only lets
// independent elements share vector lanes; results stay bit-identical to
// Eval's.
func fillRowsMatern52(s *PredictScratch, kmat *linalg.Matrix, xs, points [][]float64, k Matern52) {
	q := kmat.Cols
	dim := 0
	if len(xs) > 0 {
		dim = len(xs[0])
	}
	// Transpose the panel once: pt[d*q+c] = points[c][d], so the distance
	// sweep below streams contiguously for every dimension.
	s.pt = grow(s.pt, dim*q)
	pt := s.pt
	for c, x := range points {
		for d, v := range x[:dim] {
			pt[d*q+c] = v
		}
	}
	for i, xi := range xs {
		row := kmat.Data[i*q : i*q+q : i*q+q]
		linalg.SquaredDistancesInto(row, pt, xi)
		linalg.Matern52Row(row, k.LengthScale, k.Variance)
	}
}

// posteriorBatch is the joint-posterior kernel behind GP.Posterior and
// Incremental.Posterior: the n×q cross-covariance takes the pool's fill,
// the q query solves collapse into one matrix triangular sweep, and the
// covariance Gram accumulates row-by-row over contiguous solve rows instead
// of strided column dots. Every entry's accumulation order matches the
// per-point Eval and linalg.Dot loops it replaced, so Thompson sampling
// sees bit-identical posteriors.
func posteriorBatch(points [][]float64, xs [][]float64, alpha []float64, chol *linalg.Cholesky, kernel Matern52, mean float64) ([]float64, *linalg.Matrix) {
	q := len(points)
	n := len(xs)
	mu := make([]float64, q)
	kmat := linalg.NewMatrix(n, q)
	var s PredictScratch
	fillRowsMatern52(&s, kmat, xs, points, kernel)
	panelMeans(mu, kmat.Data, alpha, mean)
	vmat := chol.SolveLowerMatrixInto(linalg.NewMatrix(n, q), kmat)
	cov := linalg.NewMatrix(q, q)
	for r := 0; r < n; r++ {
		row := vmat.Data[r*q : r*q+q : r*q+q]
		for i, vi := range row {
			ci := cov.Data[i*q : i*q+i+1 : i*q+i+1]
			for j := range ci {
				ci[j] += vi * row[j]
			}
		}
	}
	for i := 0; i < q; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(points[i], points[j]) - cov.Data[i*q+j]
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return mu, cov
}
