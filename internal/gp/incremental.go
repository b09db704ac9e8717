// Incremental Gaussian-process regression for the engine's 100 ms tick.
//
// SATORI's proxy model changes in three distinct ways, with very different
// costs:
//
//  1. Re-weighting: the goal weights move, every recorded objective
//     y_i = W_T·T_i + W_F·F_i is reconstructed in software (Sec. III-B),
//     but the window's *inputs* are untouched. The kernel matrix — and
//     therefore its Cholesky factor — depends only on the inputs, so only
//     the solve α = K⁻¹(y−m) needs to be repeated: O(n²), not O(n³).
//  2. Append: a newly probed configuration joins the window. The factor
//     gains one row/column via linalg.Cholesky.Extend — again O(n²).
//  3. Eviction: the sliding window drops old configurations. The factor
//     is rebuilt from scratch (refactorization, not downdating — eviction
//     is rare relative to ticks, and refactorization is unconditionally
//     stable).
//
// Incremental implements exactly this split, with the same no-tuning
// hyperparameter heuristics as Fit: heuristics are re-evaluated only when
// the window's membership changes (or when the re-weighted targets move
// the data-scaled signal variance), and the full rebuild runs only when
// they actually changed. All paths reuse internal buffers, so a model
// that has reached its steady-state size performs no heap allocations.
//
// Everything that depends on the inputs, the kernel and the factor alone
// is stamped with one kernel epoch, which moves exactly when a refit or a
// rank-1 append does (Stats().Refits + Stats().Extends) and never on a
// target-only update. Under an unchanged epoch the median length scale,
// the window's Gram matrix (PredictMeansAtInto) and a scored Block's K* columns
// and standard deviations carry over from tick to tick.

package gp

import (
	"fmt"
	"slices"

	"satori/internal/linalg"
)

// IncrementalStats counts how the model has been updated — the
// diagnostics behind the engine-overhead experiment's refit/extend/solve
// breakdown.
type IncrementalStats struct {
	// Refits is the number of full O(n³) refactorizations (membership or
	// hyperparameter changes, and Extend fallbacks).
	Refits int
	// Extends is the number of O(n²) rank-1 appends.
	Extends int
	// TargetSolves is the number of O(n²) α-only re-solves (pure target
	// re-weighting, the common case while the engine exploits).
	TargetSolves int
}

// Incremental is a GP posterior that can be updated in place. The zero
// value is not usable; construct with NewIncremental. Methods are not safe
// for concurrent use (updates and PredictMean reuse internal buffers).
type Incremental struct {
	fixed  Matern52 // caller-pinned kernel; the zero value means heuristic refresh
	noise  float64
	kernel Matern52
	ls     float64 // heuristic length scale backing kernel
	vr     float64 // heuristic signal variance backing kernel
	// lsStale marks ls as older than the inputs: set by setX, cleared
	// when refreshHeuristics recomputes the median pairwise distance.
	lsStale bool

	n      int
	dim    int
	xbuf   [][]float64 // owned input copies; len >= n
	mean   float64
	alpha  []float64
	chol   *linalg.Cholesky
	jitter float64

	stats IncrementalStats
	epoch uint64 // kernel epoch: Refits + Extends, so 0 means never fitted

	kbuf    linalg.Matrix // the window's Gram matrix k(x_i, x_j), jitter-free
	distBuf []float64
	rowBuf  []float64
	ctrBuf  []float64
}

// NewIncremental returns an empty incremental model. opt is interpreted
// exactly as by Fit: a zero Kernel selects the no-tuning heuristics,
// Noise defaults to 1e-4.
func NewIncremental(opt Options) *Incremental {
	noise := opt.Noise
	if noise <= 0 {
		noise = 1e-4
	}
	return &Incremental{fixed: opt.Kernel, kernel: opt.Kernel, noise: noise}
}

// Len returns how many points the posterior conditions on.
func (m *Incremental) Len() int { return m.n }

// Stats returns the update-path counters.
func (m *Incremental) Stats() IncrementalStats { return m.stats }

// Kernel returns the model's current kernel (the zero value before the
// first Reset in heuristic mode).
func (m *Incremental) Kernel() Matern52 { return m.kernel }

// Jitter returns the diagonal jitter of the current factorization.
func (m *Incremental) Jitter() float64 { return m.jitter }

// Reset fits the model from scratch on the given window, adopting its
// order. On any error the model is left empty (Len 0) and must be Reset
// again before use; its buffers are retained.
func (m *Incremental) Reset(xs [][]float64, ys []float64) error {
	n := len(xs)
	if n == 0 {
		m.n = 0
		return ErrNoData
	}
	if len(ys) != n {
		m.n = 0
		return fmt.Errorf("gp: %d inputs but %d observations", n, len(ys))
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			m.n = 0
			return fmt.Errorf("gp: input %d has dim %d, want %d", i, len(x), dim)
		}
	}
	m.dim = dim
	for i, x := range xs {
		m.setX(i, x)
	}
	m.n = n
	if m.fixed == (Matern52{}) {
		m.refreshHeuristics(ys)
	}
	return m.rebuild(ys)
}

// Append extends the model with one new point. ys carries the (possibly
// re-weighted) targets for every point, the new one last, so a single α
// solve folds in both the append and this tick's re-weighting. When the
// no-tuning hyperparameter heuristics are unchanged by the new point the
// factor grows by a rank-1 Extend in O(n²); otherwise the kernel changed
// and the model refits — identically to a from-scratch Fit — in place.
func (m *Incremental) Append(x []float64, ys []float64) error {
	if m.n == 0 {
		return m.Reset([][]float64{x}, ys)
	}
	if len(ys) != m.n+1 {
		err := fmt.Errorf("gp: Append got %d targets for %d points", len(ys), m.n+1)
		m.n = 0
		return err
	}
	if len(x) != m.dim {
		err := fmt.Errorf("gp: Append input has dim %d, want %d", len(x), m.dim)
		m.n = 0
		return err
	}
	m.setX(m.n, x)
	m.n++
	if m.fixed == (Matern52{}) && m.refreshHeuristics(ys) {
		// Membership change moved the heuristics: hyperparameter
		// refresh, which invalidates every kernel entry.
		return m.rebuild(ys)
	}
	// Kernel unchanged: rank-1 append of the new row/column.
	m.rowBuf = grow(m.rowBuf, m.n-1)
	row := m.rowBuf
	xnew := m.xbuf[m.n-1]
	for i := 0; i < m.n-1; i++ {
		row[i] = m.kernel.Eval(xnew, m.xbuf[i])
	}
	diag := m.kernel.Variance // Eval(x, x), exactly: r = 0 and exp(-0) = 1
	if err := m.chol.Extend(row, diag+m.jitter); err != nil {
		// Near-singular append (e.g. a duplicate input): fall back to
		// refactorization with jitter escalation.
		return m.rebuild(ys)
	}
	// The Gram matrix gains the same row and column: re-stride the old
	// rows back to front (in place when the storage is kept), then write
	// the new ones.
	n := m.n
	old := m.kbuf.Data
	m.resizeGram(n)
	g := m.kbuf.Data
	for i := n - 2; i >= 0; i-- {
		copy(g[i*n:i*n+n-1], old[i*(n-1):(i+1)*(n-1)])
		g[i*n+n-1] = row[i]
	}
	copy(g[(n-1)*n:], row)
	g[n*n-1] = diag
	m.stats.Extends++
	m.epoch++
	m.solveAlpha(ys)
	return nil
}

// UpdateTargets re-solves the posterior for re-weighted targets over the
// unchanged window — the engine's fast path while it exploits: the paper
// skips the proxy-model update after the optimal configuration has been
// detected, and with an unchanged window membership the length scale and
// the kernel factor carry over, leaving one O(n) variance check and one
// O(n²) solve. When the data-scaled variance heuristic moves (it is
// floored, so it rarely does), the kernel itself changed and the model
// refits in place.
func (m *Incremental) UpdateTargets(ys []float64) error {
	if m.n == 0 {
		return ErrNoData
	}
	if len(ys) != m.n {
		err := fmt.Errorf("gp: UpdateTargets got %d targets for %d points", len(ys), m.n)
		m.n = 0
		return err
	}
	if m.fixed == (Matern52{}) && m.refreshHeuristics(ys) {
		return m.rebuild(ys)
	}
	m.stats.TargetSolves++
	m.solveAlpha(ys)
	return nil
}

// refreshHeuristics re-evaluates the no-tuning hyperparameters over the
// current window and reports whether they changed, updating the kernel
// when they did. The median length scale is a function of the inputs
// alone, so its O(n²) pair scan and sort run only after setX touched a
// row; target-only calls reuse m.ls. Note the 256-point cap in that scan:
// beyond it the scan is order-sensitive, so windows larger than 256 may
// refresh on revisit-induced reorderings that a from-scratch Fit would not
// notice — every reordering reaches the model through Reset, hence setX,
// so the reuse never hides one. The first call always reports a change:
// the heuristic length scale is never 0 and the variance is floored at
// 0.01, so neither can equal the zero value they start from.
func (m *Incremental) refreshHeuristics(ys []float64) bool {
	ls := m.ls
	if m.lsStale {
		ls, m.distBuf = medianLengthScaleInto(m.distBuf, m.xbuf[:m.n])
		m.lsStale = false
	}
	vr := flooredVariance(ys, sampleMean(ys))
	if ls == m.ls && vr == m.vr {
		return false
	}
	m.ls, m.vr = ls, vr
	m.kernel = Matern52{LengthScale: ls, Variance: vr}
	return true
}

// rebuild refactorizes the kernel matrix — the same computation as Fit,
// including the jitter escalation schedule, but into reused buffers — and
// leaves the jitter-free Gram matrix behind in kbuf. On failure the model
// is left empty.
func (m *Incremental) rebuild(ys []float64) error {
	n := m.n
	m.resizeGram(n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := m.kernel.Eval(m.xbuf[i], m.xbuf[j])
			m.kbuf.Set(i, j, v)
			m.kbuf.Set(j, i, v)
		}
	}
	if m.chol == nil {
		m.chol = &linalg.Cholesky{}
	}
	var err error
	for attempt, j := 0, m.noise; attempt < 8; attempt, j = attempt+1, j*10 {
		for i := 0; i < n; i++ {
			m.kbuf.Set(i, i, m.kernel.Variance+j)
		}
		if err = m.chol.Factorize(&m.kbuf); err == nil {
			m.jitter = j
			break
		}
	}
	if err != nil {
		m.n = 0
		return fmt.Errorf("gp: kernel matrix not factorizable even with jitter: %w", err)
	}
	for i := 0; i < n; i++ {
		m.kbuf.Set(i, i, m.kernel.Variance)
	}
	m.stats.Refits++
	m.epoch++
	m.solveAlpha(ys)
	return nil
}

// solveAlpha recomputes the prior mean and α = K⁻¹(y − m) into reused
// buffers.
func (m *Incremental) solveAlpha(ys []float64) {
	m.mean = sampleMean(ys)
	if cap(m.ctrBuf) < m.n {
		m.ctrBuf = make([]float64, m.n)
		m.alpha = make([]float64, m.n)
	}
	m.ctrBuf = m.ctrBuf[:m.n]
	m.alpha = m.alpha[:m.n]
	for i, y := range ys {
		m.ctrBuf[i] = y - m.mean
	}
	m.chol.SolveVecInto(m.alpha, m.ctrBuf)
}

// resizeGram reshapes kbuf to n×n. Storage grows amortized and keeps its
// leading entries, so an append can re-stride the old rows in place.
func (m *Incremental) resizeGram(n int) {
	data := m.kbuf.Data
	if n*n > len(data) {
		data = slices.Grow(data, n*n-len(data))
	}
	m.kbuf = linalg.Matrix{Rows: n, Cols: n, Data: data[:n*n]}
}

// setX copies x into the owned input buffer at index i.
func (m *Incremental) setX(i int, x []float64) {
	m.lsStale = true
	for i >= len(m.xbuf) {
		m.xbuf = append(m.xbuf, make([]float64, len(x)))
	}
	if len(m.xbuf[i]) != len(x) {
		m.xbuf[i] = make([]float64, len(x))
	}
	copy(m.xbuf[i], x)
}

// PredictMean returns only the posterior mean at x (no triangular solve,
// no allocations).
func (m *Incremental) PredictMean(x []float64) float64 {
	row := grow(m.rowBuf, m.n)
	for i, xi := range m.xbuf[:m.n] {
		row[i] = m.kernel.Eval(x, xi)
	}
	m.rowBuf = row
	return m.mean + linalg.Dot(row, m.alpha)
}

// PredictMeansAtInto returns dst, resized to Len, holding the posterior
// mean at each of the model's own inputs — PredictMean(x_i) to the bit at
// dst[i], read off the Gram matrix instead of n kernel evaluations a row.
// The Gram matrix is bit-symmetric (rebuild and Append write (i, j) and
// (j, i) from one value), so one panel product over it sums each row's
// K_ij·α_j in Dot's j-ascending order.
func (m *Incremental) PredictMeansAtInto(dst []float64) []float64 {
	dst = grow(dst, m.n)
	panelMeans(dst, m.kbuf.Data[:m.n*m.n], m.alpha[:m.n], m.mean)
	return dst
}

// Posterior returns the joint posterior mean vector and covariance matrix
// over a set of query points — same contract as GP.Posterior, for
// Thompson sampling.
func (m *Incremental) Posterior(points [][]float64) (mu []float64, cov *linalg.Matrix) {
	return posteriorBatch(points, m.xbuf[:m.n], m.alpha, m.chol, m.kernel, m.mean)
}
