// Incremental Gaussian-process regression for the engine's 100 ms tick.
//
// SATORI's proxy model changes in three distinct ways, with very different
// costs:
//
//  1. Re-weighting: the goal weights move, every recorded objective
//     y_i = W_T·T_i + W_F·F_i is reconstructed in software (Sec. III-B),
//     but the window's *inputs* are untouched. The kernel matrix — and
//     therefore its Cholesky factor — depends only on the inputs, and
//     α = K̃⁻¹(y − m) is linear in the targets, so α is a weighted sum of a
//     few solves kept per kernel epoch (the goal basis, below): O(n).
//  2. Append: a newly probed configuration joins the window. The factor
//     gains one row/column via linalg.Cholesky.Extend — O(n²) — and α is
//     solved once.
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
// the goal basis and a scored Block's K* columns, standard deviations and
// basis projections carry over from tick to tick.
//
// The goal basis. UpdateGoals takes the two goals per row, T and F, and
// their weights. Per kernel epoch the model solves β_T = K̃⁻¹(T₀ − mean T₀)
// and β_F likewise once, T₀ and F₀ being the goals at that build, and
// d_r = K̃⁻¹(e_r − 1/n) for each of at most maxLive live rows, the rows
// whose goals moved since (the engine re-records the configuration it runs
// every tick). With s_r the move of row r's target,
//
//	α = w_T·β_T + w_F·β_F + Σ_r s_r·d_r
//
// solves (K + jitter·I)·α = y − mean exactly in real arithmetic — a moved
// target moves the mean by s_r/n, which d_r's centring takes out — and
// costs O(n) per tick. A further moved row, or a new epoch, rebuilds the
// basis. The sum rounds unlike a solve: α agrees with the solve to about
// 1e-14 of its scale, and the posterior means with it. UpdateTargets is the
// one-goal case of the same path: its basis is the solve itself, rebuilt
// whenever a target moves, so its α is the solve's to the bit.
//
// The window's pairwise squared distances depend on the inputs alone, so
// they are computed once per point, when the point is set, and kept as a
// packed lower triangle. The median heuristic selects from it, and a refit
// or an extend turns it into Gram rows with one Matérn transform per row,
// written straight into the factor's storage. No Gram matrix is kept: the
// posterior means at the window's own inputs are y − jitter·α, since
// (K + jitter·I)·α = y − mean.

package gp

import (
	"fmt"
	"math"
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
	// TargetSolves is the number of target-only updates (pure target
	// re-weighting, the common case while the engine exploits): O(n) when
	// the goal basis stands.
	TargetSolves int
	// BasisBuilds counts the goal bases built (one O(n²) solve per goal) —
	// the generation a Block's projections are stamped with — and
	// ColumnSolves the O(n²) solves of a live row's column d_r.
	BasisBuilds, ColumnSolves int
}

// Incremental is a GP posterior that can be updated in place. The zero
// value is not usable; construct with NewIncremental. Methods are not safe
// for concurrent use (updates and PredictMean reuse internal buffers).
type Incremental struct {
	fixed  Matern52 // caller-pinned kernel; the zero value means heuristic refresh
	noise  float64
	kernel Matern52 // in heuristic mode, the heuristics' last values
	// lsStale marks the length scale as older than the inputs: set by setX,
	// cleared when refreshHeuristics recomputes the median pairwise
	// distance.
	lsStale bool
	// goals is how many goals the basis was built for, 0 while α was
	// solved directly (after a Reset, an Append or a refit: a new epoch);
	// nlive of its live rows are live[:nlive].
	goals, nlive int8
	live         [maxLive]int32

	n    int
	dim  int
	xbuf [][]float64 // owned input copies; len >= n
	// tri holds ‖x_i − x_j‖² for j < i, row i at tri[i(i−1)/2:][:i]: the
	// window's pairwise squared distances as a packed lower triangle,
	// written by setX.
	tri    []float64
	mean   float64
	alpha  []float64
	chol   *linalg.Cholesky
	jitter float64

	stats IncrementalStats
	epoch uint64 // kernel epoch: Refits + Extends, so 0 means never fitted
	// basis holds the targets of the last update and the goal basis; see
	// the slot constants.
	basis   []float64
	rowBuf  []float64 // scratch: a Gram row or a kernel row
	ctrBuf  []float64
	moveBuf []move // the points of the last PredictMovedBlockInto
	// cols holds the inputs dim-major as of kernel epoch colsEpoch, the
	// rows the walk fill gathers (walkCols).
	cols      []float64
	colsEpoch uint64
	// scratch is the caller's scratch for the updates' working memory
	// (UseScratch), nil while the caller lends none.
	scratch *PredictScratch
}

// The goal basis: at most maxGoals goals and maxLive live rows, so a
// Block keeps nproj projections of each point.
const (
	maxGoals = 2
	maxLive  = 2
	nproj    = maxGoals + maxLive
)

// Incremental.basis starts with the nproj coefficients of the current α
// on the basis vectors. After them come n-long slots: the targets of the
// last update, the goals at the build, then the basis vectors, β per goal
// and d per live row — projection k of a Block is slot slotBeta+k.
const (
	slotY    = 0
	slotGoal = 1
	slotBeta = slotGoal + maxGoals
	slots    = slotBeta + nproj
)

// slot returns slot k of the basis buffer.
func (m *Incremental) slot(k int) []float64 {
	at := nproj + k*m.n
	return m.basis[at : at+m.n : at+m.n]
}

// active is how many basis vectors the current α weighs: the goals', and
// the live rows' too. They are the first of the slots from slotBeta on.
func (m *Incremental) active() int {
	return int(m.goals + m.nlive)
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
	if err := m.rebuild(); err != nil {
		return err
	}
	m.solveAlpha(ys)
	return nil
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
	if err := m.extend(ys); err != nil {
		return err
	}
	m.solveAlpha(ys)
	return nil
}

// extend folds the point setX just added into the factor: a rank-1 append
// of its triangle row through the Matérn transform while the heuristics
// stand, else a refit.
func (m *Incremental) extend(ys []float64) error {
	if m.fixed == (Matern52{}) && m.refreshHeuristics(ys) {
		// Membership change moved the heuristics: hyperparameter
		// refresh, which invalidates every kernel entry.
		return m.rebuild()
	}
	m.rowBuf = grow(m.rowBuf, m.n-1)
	row := m.rowBuf
	m.gramRow(row, m.n-1)
	// Eval(x, x) is Variance exactly: r = 0 and exp(-0) = 1.
	if err := m.chol.Extend(row, m.kernel.Variance+m.jitter); err != nil {
		// Near-singular append (e.g. a duplicate input): fall back to
		// refactorization with jitter escalation.
		return m.rebuild()
	}
	m.stats.Extends++
	m.newEpoch()
	return nil
}

// UpdateTargets re-targets the posterior at ys over the unchanged window,
// the one-goal case of UpdateGoals: its basis is the solve
// α = K̃⁻¹(y − mean) itself, rebuilt whenever a target moved, so α keeps
// the solve's bits, and targets equal to the last update's cost O(n).
func (m *Incremental) UpdateTargets(ys []float64) error {
	return m.retarget([maxGoals][]float64{ys}, [maxGoals]float64{1}, 1)
}

// UpdateGoals re-targets the posterior at y_i = wT·t_i + wF·f_i over the
// unchanged window — the engine's fast path while it exploits: the paper
// skips the proxy-model update after the optimal configuration has been
// detected, and with an unchanged window membership the length scale, the
// kernel factor and the goal basis carry over, leaving O(n) work and one
// O(n²) column solve per row whose goals newly moved (see the package
// doc). When the data-scaled variance heuristic moves (it is floored, so
// it rarely does), the kernel itself changed and the model refits in
// place.
func (m *Incremental) UpdateGoals(t, f []float64, wT, wF float64) error {
	return m.retarget([maxGoals][]float64{t, f}, [maxGoals]float64{wT, wF}, maxGoals)
}

// retarget is UpdateTargets and UpdateGoals: goals g of the model's rows,
// weighted by w.
func (m *Incremental) retarget(goals [maxGoals][]float64, w [maxGoals]float64, g int) error {
	n := m.n
	if n == 0 {
		return ErrNoData
	}
	for _, goal := range goals[:g] {
		if len(goal) != n {
			err := fmt.Errorf("gp: got %d targets for %d points", len(goal), n)
			m.n = 0
			return err
		}
	}
	m.sizeBasis()
	y := m.slot(slotY)
	if g == 1 {
		copy(y, goals[0])
	} else {
		t, f := goals[0][:n], goals[1][:n]
		for i := range y {
			y[i] = w[0]*t[i] + w[1]*f[i]
		}
	}
	if m.fixed == (Matern52{}) && m.refreshHeuristics(y) {
		if err := m.rebuild(); err != nil {
			return err
		}
	} else {
		m.stats.TargetSolves++
	}
	m.mean = sampleMean(y)
	if !m.keepBasis(goals, g) {
		m.buildBasis(goals, g)
	}
	m.weighBasis(w)
	return nil
}

// keepBasis reports whether the basis serves g goals at their current
// values, making live any row whose goals moved since the build. It
// refuses — the basis is rebuilt — after a new epoch, for another number
// of goals, and when more rows moved than live columns are left; one goal
// keeps no live rows.
func (m *Incremental) keepBasis(goals [maxGoals][]float64, g int) bool {
	if int(m.goals) != g {
		return false
	}
	var moved [maxLive]int32
	nm := 0
	for k, goal := range goals[:g] {
		for i, v := range m.slot(slotGoal + k) {
			if goal[i] == v || slices.Contains(m.live[:m.nlive], int32(i)) || slices.Contains(moved[:nm], int32(i)) {
				continue
			}
			if g == 1 || int(m.nlive)+nm == maxLive {
				return false
			}
			moved[nm] = int32(i)
			nm++
		}
	}
	for _, r := range moved[:nm] {
		m.addLive(int(r))
	}
	return true
}

// buildBasis solves the basis for goals at their current values, β per
// goal, centred by its mean; no row is live.
func (m *Incremental) buildBasis(goals [maxGoals][]float64, g int) {
	m.goals, m.nlive = int8(g), 0
	m.stats.BasisBuilds++
	m.ctrBuf = grow(m.ctrBuf, m.n)
	for k, goal := range goals[:g] {
		copy(m.slot(slotGoal+k), goal)
		mk := sampleMean(goal)
		for i, v := range goal[:m.n] {
			m.ctrBuf[i] = v - mk
		}
		m.chol.SolveVecInto(m.slot(slotBeta+k), m.ctrBuf)
	}
}

// addLive solves row r's column d_r = K̃⁻¹(e_r − 1/n) into the next live
// slot.
func (m *Incremental) addLive(r int) {
	m.ctrBuf = grow(m.ctrBuf, m.n)
	inv := 1 / float64(m.n)
	for i := range m.ctrBuf {
		m.ctrBuf[i] = -inv
	}
	m.ctrBuf[r] = 1 - inv
	m.chol.SolveVecInto(m.slot(slotBeta+maxGoals+int(m.nlive)), m.ctrBuf)
	m.live[m.nlive] = int32(r)
	m.nlive++
	m.stats.ColumnSolves++
}

// weighBasis writes the current targets' coefficients on the basis into
// the header and α as their weighted sum. One goal's α is its β, to the
// bit (1·x = x).
func (m *Incremental) weighBasis(w [maxGoals]float64) {
	coef := m.basis[:nproj]
	if m.goals == 1 {
		coef[0] = 1
	} else {
		y, t0, f0 := m.slot(slotY), m.slot(slotGoal), m.slot(slotGoal+1)
		coef[0], coef[1] = w[0], w[1]
		for j, r := range m.live[:m.nlive] {
			coef[maxGoals+j] = y[r] - (w[0]*t0[r] + w[1]*f0[r])
		}
	}
	m.alpha = grow(m.alpha, m.n)
	weigh(m.alpha, coef[:m.active()], m.basis[nproj+slotBeta*m.n:], m.n)
}

// weigh writes dst[i] = Σ_j coef[j]·vecs[j·stride+i], summed j-ascending:
// vecs holds len(coef) vectors, stride apart.
func weigh(dst, coef, vecs []float64, stride int) {
	v := vecs[:len(dst)]
	for i := range dst {
		dst[i] = coef[0] * v[i]
	}
	for j, c := range coef[1:] {
		v := vecs[(j+1)*stride:][:len(dst)]
		for i := range dst {
			dst[i] += c * v[i]
		}
	}
}

// sizeBasis sizes the basis buffer for the model's n.
func (m *Incremental) sizeBasis() {
	if want := nproj + slots*m.n; len(m.basis) != want {
		m.basis = grow(m.basis, want)
	}
}

// refreshHeuristics re-evaluates the no-tuning hyperparameters over the
// current window and reports whether they changed, updating the kernel
// when they did. The median length scale is a function of the inputs
// alone, so its selection runs only after setX touched a row; target-only
// calls reuse the kernel's. Note the 256-point cap on the pairs it selects from:
// beyond it the median is order-sensitive, so windows larger than 256 may
// refresh on revisit-induced reorderings that a from-scratch Fit would not
// notice — every reordering reaches the model through Reset, hence setX,
// so the reuse never hides one. The first call always reports a change:
// the heuristic length scale is never 0 and the variance is floored at
// 0.01, so neither can equal the zero value they start from.
func (m *Incremental) refreshHeuristics(ys []float64) bool {
	k := Matern52{LengthScale: m.kernel.LengthScale, Variance: flooredVariance(ys, sampleMean(ys))}
	if m.lsStale {
		k.LengthScale = m.medianLengthScale()
		m.lsStale = false
	}
	if k == m.kernel {
		return false
	}
	m.kernel = k
	return true
}

// medianLengthScale is MedianLengthScale of the window, selected from the
// triangle instead of a fresh pair scan, to the bit: the first min(n, 256)
// triangle rows hold exactly the pairs the capped scan visits, the order
// statistic of a set does not depend on its order, a squared distance is
// positive exactly when its root is, and √ is monotone, so the root of the
// selected d² is the distance the scan selects. The pair list, up to
// n(n−1)/2 floats, is a scratch's: the one the caller lent (UseScratch),
// else one off the shared list (TakeScratch), so no model keeps it between
// calls.
func (m *Incremental) medianLengthScale() float64 {
	s := m.scratch
	if s == nil {
		s = TakeScratch()
	}
	limit := min(m.n, medianScanCap)
	d := s.panel[:0]
	for _, v := range m.tri[:limit*(limit-1)/2] {
		if v > 0 {
			d = append(d, v)
		}
	}
	s.panel = d
	ls := 1.0
	if len(d) > 0 {
		ls = math.Sqrt(selectKth(d, len(d)/2))
	}
	if s != m.scratch {
		s.Release()
	}
	return ls
}

// UseScratch lends the model s for the working memory of its updates
// (Reset, Append, UpdateGoals, UpdateTargets) until UseScratch(nil), so a
// caller that holds a scratch for its tick takes none more; without one an
// update borrows its own. The model must not be updated while s is in use
// elsewhere, and s must be taken back before it is released.
func (m *Incremental) UseScratch(s *PredictScratch) { m.scratch = s }

// gramRow writes k(x_i, x_j) for j < i into row: triangle row i through
// the Matérn transform, whose every element is Eval's bits for its pair.
func (m *Incremental) gramRow(row []float64, i int) {
	copy(row, m.tri[i*(i-1)/2:][:i])
	linalg.Matern52Row(row, m.kernel.LengthScale, m.kernel.Variance)
}

// rebuild refactorizes the kernel matrix — the same computation as Fit,
// including the jitter escalation schedule — writing each Gram row
// straight into the factor's storage, and starts a new epoch. On failure
// the model is left empty.
func (m *Incremental) rebuild() error {
	if m.chol == nil {
		m.chol = &linalg.Cholesky{}
	}
	var err error
	for attempt, j := 0, m.noise; attempt < 8; attempt, j = attempt+1, j*10 {
		diag := m.kernel.Variance + j
		if err = m.chol.FactorizeRows(m.n, func(i int, row []float64) {
			m.gramRow(row[:i], i)
			row[i] = diag
		}); err == nil {
			m.jitter = j
			break
		}
	}
	if err != nil {
		m.n = 0
		return fmt.Errorf("gp: kernel matrix not factorizable even with jitter: %w", err)
	}
	m.stats.Refits++
	m.newEpoch()
	return nil
}

// newEpoch moves the kernel epoch, which outdates the goal basis.
func (m *Incremental) newEpoch() {
	m.epoch++
	m.goals = 0
}

// solveAlpha recomputes the prior mean and α = K̃⁻¹(y − m) into reused
// buffers, keeping the targets for PredictMeansAtInto.
func (m *Incremental) solveAlpha(ys []float64) {
	m.sizeBasis()
	copy(m.slot(slotY), ys)
	m.mean = sampleMean(ys)
	m.ctrBuf = grow(m.ctrBuf, m.n)
	m.alpha = grow(m.alpha, m.n)
	for i, y := range ys {
		m.ctrBuf[i] = y - m.mean
	}
	m.chol.SolveVecInto(m.alpha, m.ctrBuf)
}

// setX copies x into the owned input buffer at index i and writes its
// triangle row, the squared distances to inputs 0 … i−1, which must
// already be set.
func (m *Incremental) setX(i int, x []float64) {
	m.lsStale = true
	for i >= len(m.xbuf) {
		m.xbuf = append(m.xbuf, make([]float64, len(x)))
	}
	if len(m.xbuf[i]) != len(x) {
		m.xbuf[i] = make([]float64, len(x))
	}
	copy(m.xbuf[i], x)
	m.tri = m.tri[:i*(i-1)/2]
	for _, xj := range m.xbuf[:i] {
		m.tri = append(m.tri, linalg.SquaredDistance(x, xj))
	}
}

// triAt returns ‖x_i − x_j‖², 0 on the diagonal, from the triangle.
func (m *Incremental) triAt(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	if i == j {
		return 0
	}
	return m.tri[i*(i-1)/2+j]
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
// mean at each of the model's own inputs: mean + (K·α)_i, which is
// y_i − jitter·α_i because (K + jitter·I)·α = y − mean. It agrees with
// PredictMean(x_i) to the solve's residual, about 1e-15 of the targets'
// scale, in O(n).
func (m *Incremental) PredictMeansAtInto(dst []float64) []float64 {
	dst = grow(dst, m.n)
	for i, y := range m.slot(slotY) {
		dst[i] = y - m.jitter*m.alpha[i]
	}
	return dst
}

// Posterior returns the joint posterior mean vector and covariance matrix
// over a set of query points — same contract as GP.Posterior, for
// Thompson sampling.
func (m *Incremental) Posterior(pts *Points) (mu []float64, cov *linalg.Matrix) {
	return posteriorBatch(pts, m.xbuf[:m.n], m.alpha, m.chol, m.kernel, m.mean)
}
