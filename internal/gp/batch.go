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
// candidate given as a point scores to the same bits wherever it is pooled.
// The property tests in batch_test.go pin that with == comparisons, and
// agreement with GP.Predict to 1e-9.
//
// Of a scored point, only the mean depends on the targets. A Block keeps
// the rest — K* columns and standard deviations — so that a group of
// points scored again under the same kernel epoch (see Incremental) costs
// no fill and no solve; epoch_test.go pins that reuse with == as well. It
// also keeps K*ᵀ of each goal-basis vector, so that re-weighted targets
// cost the group O(1) per point: its mean is the same weighted sum of
// those projections that α is of the basis.
//
// The query points arrive as Points, already laid out the way the fill
// streams them, so the caller encodes each point once, in place. A block
// of points that each differ from one model input in two coordinates can
// arrive as Moves instead, and its distances are read off the model's
// stored ones. That fill sums in another order, so a point given as a move
// does not score to the bits of the same point given as a point; the two
// agree to about 1e-15 (moved_test.go holds them within 1e-12).

package gp

import (
	"fmt"
	"math"
	"slices"

	"satori/internal/linalg"
)

// Points is a set of query points laid out for the cross-covariance fill:
// cut into panels of panelWidth points, each panel dim-major — coordinate d
// of the panel's point c at d·w + c, w the panel's width — and the panels
// one after another in Data. The zero value is empty; Reset sizes it.
type Points struct {
	// Data holds the coordinates; Column says where a point's lie.
	Data     []float64
	len, dim int
}

// Reset sizes p for n points of dimension dim, reusing its storage; the
// coordinates are left unwritten.
func (p *Points) Reset(n, dim int) {
	p.Data = grow(p.Data, n*dim)
	p.len, p.dim = n, dim
}

// Grow extends p to n >= Len() points of its dimension, keeping the points
// it holds: only the last panel's layout depends on the count, so its
// points move to their places in the wider panel. The new points are left
// unwritten.
func (p *Points) Grow(n int) {
	old := p.len
	if n < old {
		panic(fmt.Sprintf("gp: Grow to %d points of %d", n, old))
	}
	p.Data = slices.Grow(p.Data[:p.dim*old], p.dim*(n-old))[:p.dim*n]
	p.len = n
	p0 := old - old%panelWidth
	w0, w1 := old-p0, min(panelWidth, n-p0)
	panel := p.Data[p.dim*p0:]
	for d := p.dim - 1; d > 0 && w0 < w1; d-- { // coordinate 0 stays put
		copy(panel[d*w1:d*w1+w0], panel[d*w0:d*w0+w0])
	}
}

// Load resets p to hold xs, which must share one dimension.
func (p *Points) Load(xs [][]float64) {
	dim := 0
	if len(xs) > 0 {
		dim = len(xs[0])
	}
	p.Reset(len(xs), dim)
	for c, x := range xs {
		at, stride := p.Column(c)
		for _, v := range x[:dim:dim] {
			p.Data[at] = v
			at += stride
		}
	}
}

// Len returns the number of points.
func (p *Points) Len() int { return p.len }

// Column returns where point c lies in Data: its coordinate d is
// Data[at + d·stride].
func (p *Points) Column(c int) (at, stride int) {
	p0 := c - c%panelWidth
	return p.dim*p0 + c - p0, min(panelWidth, p.len-p0)
}

// Broadcast writes x, of p's dimension, as every point in [lo, hi).
func (p *Points) Broadcast(lo, hi int, x []float64) {
	for p0 := lo - lo%panelWidth; p0 < hi; p0 += panelWidth {
		w := min(panelWidth, p.len-p0)
		c0, c1 := max(lo, p0)-p0, min(hi, p0+w)-p0
		panel := p.panel(p0, p0+w)
		for d, v := range x[:p.dim:p.dim] {
			row := panel[d*w+c0 : d*w+c1]
			for i := range row {
				row[i] = v
			}
		}
	}
}

// panel returns the dim-major panel of points [p0, p1); p0 is a multiple
// of panelWidth and p1 that panel's end.
func (p *Points) panel(p0, p1 int) []float64 {
	return p.Data[p.dim*p0 : p.dim*p1]
}

// squaredDistance returns ‖p_i − p_j‖², summed dimensions ascending as
// linalg.SquaredDistance sums it.
func (p *Points) squaredDistance(i, j int) float64 {
	ai, si := p.Column(i)
	aj, sj := p.Column(j)
	s := 0.0
	for d := 0; d < p.dim; d++ {
		dd := p.Data[ai+d*si] - p.Data[aj+d*sj]
		s += dd * dd
	}
	return s
}

// PredictBatchInto scores all query points into mu and sigma (each of
// length len(points)) using one matrix-level triangular solve per panel of
// panelWidth points: the points, loaded into s once, take the one Points
// path. After the scratch has grown to the model×pool size it performs no
// allocations.
func (m *Incremental) PredictBatchInto(s *PredictScratch, mu, sigma []float64, points [][]float64) {
	s.Points.Load(points)
	s.kmat = grow(s.kmat, m.n*len(points))
	m.predictBatch(s, s.kmat, mu, sigma, &s.Points)
}

// PredictMeansInto is the first half of scoring pts: it fills their
// cross-covariances into s and writes their posterior means into mu.
// PredictSigmasInto finishes the same points from s; SigmaCeilingsInto
// bounds their σ before that.
//
// The last wk.Len() points are walks from model input wk.Base. From
// dimension walkDim on, a walk's squared distances to the inputs are
// updated from x_Base's stored ones over the coordinates it moved
// (fillWalks) instead of swept over all of them; below it, and for the
// other points, the fill is PredictBatchInto's.
func (m *Incremental) PredictMeansInto(s *PredictScratch, mu []float64, pts *Points, wk Walks) {
	q, walks := pts.Len(), wk.Len()
	if len(mu) != q || walks > q || walks > 0 && (wk.Base < 0 || wk.Base >= m.n) {
		panic(fmt.Sprintf("gp: PredictMeansInto got %d mu for %d points, %d of them walks from input %d of %d", len(mu), q, walks, wk.Base, m.n))
	}
	if m.dim < walkDim {
		walks = 0
	}
	moved := wk.Moved
	s.kmat = grow(s.kmat, m.n*q)
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		kpanel, pt := s.kmat[m.n*p0:m.n*p1], pts.panel(p0, p1)
		if dense := min(max(q-walks-p0, 0), p1-p0); dense < p1-p0 {
			moved = m.fillWalks(s, kpanel, pt, dense, wk.Base, moved)
			panelMeans(mu[p0:p1], kpanel, m.alpha, m.mean)
			continue
		}
		m.fillPanel(kpanel, mu[p0:p1], pt)
	}
}

// Walks describes the last Len() points of a Points as walks from model
// input Base, each x_Base with a few coordinates moved: Moved lists, walk by
// walk in point order, the coordinates each walk's moves changed, each
// once, each walk's run ended by a −1. A listed coordinate may hold
// x_Base's value again; one not listed must hold it. The zero value
// describes no walks.
type Walks struct {
	Base  int
	Moved []int32
}

// Len returns the number of walks wk describes.
func (wk Walks) Len() int {
	n := 0
	for _, k := range wk.Moved {
		if k < 0 {
			n++
		}
	}
	return n
}

// walkDim is the least dimension at which fillWalks is cheaper than the
// dense sweep for walks of three moves, up to six coordinates. The update
// costs a gather of the moved coordinates' rows, one DotsInto and a
// strided store per walk, where the sweep costs every coordinate: over 15
// alternated runs of BenchmarkDenseWalks against BenchmarkMovedWalks (a
// panel of 16 random points and 16 walks, window 64) the median
// dense/moved ratio read 0.82 at dimension 15, 0.84 at 24, 1.00 at 36,
// 0.98 at 42, 1.04 at 48 and 1.16 at 72 on a 2-CPU container.
const walkDim = 48

// fillWalks writes the cross-covariances of the dim-major panel pt into
// kpanel (n×w, row-major, w the panel's width) when its columns from dense
// on are walks from input base, their moved coordinates listed in moved,
// and returns moved past them. The dense columns are swept as fillPanel
// sweeps them, from a copy of their own dim-major panel, so they keep its
// bits. A walk y's squared distance to input i is
//
//	‖x_i − y‖² = ‖x_i − x_b‖² + Σ_k [(x_ik − y_k)² − (x_ik − x_bk)²]
//	           = ‖x_i − x_b‖² + Σ_k (y_k² − x_bk²) + Σ_k 2(x_bk − y_k)·x_ik,
//
// k over the walk's moved coordinates in list order: one DotsInto over the
// model rows of the stored triangle's row, a row of ones and the moved
// coordinates' rows, gathered from the inputs kept dim-major (walkCols).
// The sum does not round like the sweep, and where the true distance is 0
// it can come out a few ulps negative; max(0, ·) clamps it, as fillMoved
// does, before the one Matérn transform of the whole panel, whose √ would
// make it NaN.
func (m *Incremental) fillWalks(s *PredictScratch, kpanel, pt []float64, dense, base int, moved []int32) []int32 {
	n, dim := m.n, m.dim
	w := len(pt) / dim
	cols := m.walkCols()
	s.panel = grow(s.panel, dim*dense+(dim+2)*(n+1)+n)
	buf := s.panel
	sub, buf := buf[:dim*dense], buf[dim*dense:]
	coef, rows, d2 := buf[:dim+2], buf[dim+2:(dim+2)*(n+1)], buf[(dim+2)*(n+1):]
	if dense > 0 {
		for d := 0; d < dim; d++ {
			copy(sub[d*dense:(d+1)*dense], pt[d*w:d*w+dense])
		}
		linalg.SquaredDistanceRowsInto(kpanel[:(n-1)*w+dense], w, sub, m.xbuf[:n])
	}
	for i := range n {
		rows[i], rows[n+i] = m.triAt(i, base), 1
	}
	coef[0] = 1
	xb := m.xbuf[base][:dim]
	for c := dense; c < w; c++ {
		k, c0 := 2, 0.0
		for ; moved[k-2] >= 0; k++ {
			d := int(moved[k-2])
			v, b := pt[d*w+c], xb[d]
			copy(rows[k*n:k*n+n], cols[d*n:d*n+n])
			coef[k] = 2 * (b - v)
			c0 += v*v - b*b
		}
		moved = moved[k-1:]
		coef[1] = c0
		linalg.DotsInto(d2, rows[:k*n], coef[:k])
		for i, v := range d2 {
			// max(0, ·) without a branch: a set sign bit clears every bit.
			u := math.Float64bits(v)
			kpanel[i*w+c] = math.Float64frombits(u &^ uint64(int64(u)>>63))
		}
	}
	linalg.Matern52Row(kpanel, m.kernel.LengthScale, m.kernel.Variance)
	return moved
}

// walkCols returns the inputs dim-major, coordinate d of input i at d·n + i,
// rebuilding them once per kernel epoch: every change of the inputs moves
// the epoch. Only a model the walk fill runs on holds the copy.
func (m *Incremental) walkCols() []float64 {
	n, dim := m.n, m.dim
	if m.colsEpoch != m.epoch || len(m.cols) != n*dim {
		m.cols = grow(m.cols, n*dim)
		for i, xi := range m.xbuf[:n] {
			for d, v := range xi[:dim] {
				m.cols[d*n+i] = v
			}
		}
		m.colsEpoch = m.epoch
	}
	return m.cols
}

// PredictSigmasInto is the second half of scoring points: the posterior
// standard deviations of the len(sigma) points PredictMeansInto last filled
// into s.
func (m *Incremental) PredictSigmasInto(s *PredictScratch, sigma []float64) {
	q := len(sigma)
	if len(s.kmat) != m.n*q {
		panic(fmt.Sprintf("gp: PredictSigmasInto got %d sigma, %d points filled", q, len(s.kmat)/max(m.n, 1)))
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

// SigmaCeilingsInto bounds the σ PredictSigmasInto computes for the points
// PredictMeansInto last filled into s, from their cross-covariances alone:
// it writes the bound of each point c from i to the end of i's panel into
// sigma[c], leaves the rest of sigma as it was, and returns that end. The
// bound is σ² <= k(x,x) − max_j k_j²/(k(x,x) + jitter), by Cauchy–Schwarz
// in the inner product of the matrix the computed factor inverts, raised
// by a margin relative to k(x,x) that covers the solve's backward error
// (DESIGN.md §4); one linalg.MaxSquaresInto takes the whole panel's
// maxima. It is NaN where a cross-covariance is.
func (m *Incremental) SigmaCeilingsInto(s *PredictScratch, sigma []float64, i int) int {
	n, q := m.n, len(sigma)
	if len(s.kmat) != n*q || i < 0 || i >= q {
		panic(fmt.Sprintf("gp: SigmaCeilingsInto got %d sigma from point %d, %d points filled", q, i, len(s.kmat)/max(n, 1)))
	}
	p0 := i - i%panelWidth
	p1 := min(p0+panelWidth, q)
	s.panel = grow(s.panel, p1-p0)
	near := s.panel
	linalg.MaxSquaresInto(near, s.kmat[n*p0:n*p1])
	kxx := m.kernel.Variance
	for c := i; c < p1; c++ {
		v := kxx - near[c-p0]/(kxx+m.jitter) + float64(n+4)*0x1p-48*kxx
		sigma[c] = math.Sqrt(max(v, 0))
	}
	return p1
}

// Block is what scoring one group of query points leaves behind that the
// model's targets cannot change: the cross-covariance columns K*, the
// posterior standard deviations and the projections K*ᵀb of the goal
// basis vectors b, functions of the window inputs, the kernel and the
// factor only. While the model's kernel epoch stands, RepredictBlockInto
// re-scores the group from it in O(1) per point, after projecting any
// basis vector the block has not seen in O(n). The zero value is an empty
// block; a block belongs to one model and one fixed group of points.
//
// A block without its K* columns is a shadow (ShadowBlock): it still
// re-scores its group while its projections cover the model's basis, and
// otherwise needs K* refilled, which ReviveMovedBlockInto does without the
// triangular solve.
//
// A block also keeps the extremes of what it stores — the largest σ and each
// projection's least and greatest value — so that BlockCeiling can bound
// every mean and σ the group would re-score to without writing any of them.
type Block struct {
	epoch uint64 // the model's kernel epoch at the last fill; 0 = never filled
	// data holds the group's n×q K* columns, unless the block is a shadow,
	// then its tail: the q standard deviations, the nproj projections of q,
	// the largest σ, the nproj projections' minima and their maxima, the
	// basis generation the projections were taken under, how many of them
	// are, and q. n is the model's size, fixed while its epoch stands.
	data []float64
}

// tailLen is the length of a Block's data past its K* columns, for q
// points; blockLen is the whole, for n inputs. ext is where a tail's
// extremes start.
func tailLen(q int) int     { return ext(q) + 1 + 2*nproj + 3 }
func blockLen(n, q int) int { return n*q + tailLen(q) }
func ext(q int) int         { return (1 + nproj) * q }

// tail returns b's data past its K* columns: all of a shadow's, or nil
// when b was never filled.
func (b *Block) tail() []float64 {
	if len(b.data) == 0 {
		return nil
	}
	return b.data[len(b.data)-tailLen(int(b.data[len(b.data)-1])):]
}

// PredictBlockInto scores pts like PredictBatchInto, keeping the group's
// kernel-only results in b for RepredictBlockInto; the means are then
// taken from b, to RepredictBlockInto's bits.
func (m *Incremental) PredictBlockInto(s *PredictScratch, b *Block, mu, sigma []float64, pts *Points) {
	nq := m.n * pts.Len()
	b.data = s.blockData(b, m.n, pts.Len())
	m.predictBatch(s, b.data[:nq], mu, sigma, pts)
	copy(b.data[nq:], sigma)
	m.fillBlock(b, mu)
}

// BlockCeiling bounds what RepredictBlockInto would write for b's q points
// without writing it: no mean exceeds mu and no σ exceeds sigma, both
// compared exactly. It reports ok only when b is current and its
// projections cover the model's basis, so that the means are the weighted
// sum of stored projections. The bound takes each projection's extreme on
// the side its coefficient's sign favours and weighs those through weigh
// itself, in blockMeans' order: every step of that sum rounds monotonically
// in each operand, fused or not, so the bound dominates each point's sum
// with no margin (DESIGN.md §4). A NaN anywhere makes mu or sigma NaN.
func (m *Incremental) BlockCeiling(b *Block, q int) (mu, sigma float64, ok bool) {
	if b.epoch != m.epoch || !m.covers(b, q) {
		return 0, 0, false
	}
	tail := b.tail()
	x := tail[ext(q) : ext(q)+1+2*nproj]
	coef := m.basis[:m.active()]
	var pick [nproj]float64
	for j, c := range coef {
		pick[j] = x[1+j] // the minimum
		if c >= 0 {
			pick[j] = x[1+nproj+j] // the maximum
		}
	}
	var sum [1]float64
	weigh(sum[:], coef, pick[:], 1)
	return m.mean + sum[0], x[0], true
}

// Moves describes a group of query points by how each differs from one of
// the model's inputs, x_Base: in two coordinates of one group, the
// coordinates coming in groups of Group consecutive ones. The point of a
// move from coordinate a to coordinate b is x_Base with coordinate a set to
// Give[a] and coordinate b set to Take[b] — a resource unit moved from one
// job to another, to the engine. Every coordinate a whose Give is not NaN
// moves, in ascending order, to every other coordinate b of its group, in
// ascending order: that is the order of the points. Give and Take have the
// model's dimension.
type Moves struct {
	Base, Group int
	Give, Take  []float64
}

// Len returns the number of points mv describes.
func (mv *Moves) Len() int {
	givers := 0
	for _, v := range mv.Give {
		if !math.IsNaN(v) {
			givers++
		}
	}
	return givers * (mv.Group - 1)
}

// move is one point of a Moves: the coordinate that gives and the one that
// takes.
type move struct{ from, to int32 }

// PredictMovedBlockInto scores the points mv describes into mu and sigma,
// keeping the kernel-only results in b like PredictBlockInto, without
// materialising them: a point y that differs from x_p = x_Base in
// coordinates a and b lies at
//
//	‖x_i − y‖² = ‖x_i − x_p‖² + G_i[a] + T_i[b],
//	G_i[k] = (x_ik − Give[k])² − (x_ik − x_pk)², T_i[k] likewise with Take,
//
// from model input i. The first term is the window's stored distance, and
// the two d-length tables are built once per model row, so a point costs
// two additions where a dense fill sweeps all d coordinates. The sum does
// not round like the direct one: the last bits of a point's μ and σ differ
// from PredictBlockInto's on the materialised point, and a point that
// coincides with an input, whose true distance is 0, can come out a few
// ulps negative. max(0, ·) clamps it; the Matérn transform's √ would make it
// NaN. The transform, the triangular solves, the means and b's stamps are
// PredictBlockInto's.
func (m *Incremental) PredictMovedBlockInto(s *PredictScratch, b *Block, mu, sigma []float64, mv *Moves) {
	n, q := m.n, len(mu)
	m.checkMoves(mv, q, len(sigma))
	nq := n * q
	b.data = s.blockData(b, n, q)
	kstar := b.data[:nq]
	m.fillMoved(s, kstar, mv, q)
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		m.solvePanel(s, kstar[n*p0:n*p1], sigma[p0:p1])
	}
	copy(b.data[nq:], sigma)
	m.fillBlock(b, mu)
}

// checkMoves panics unless mv describes q points of the model, scored into
// q sigma.
func (m *Incremental) checkMoves(mv *Moves, q, nsigma int) {
	n, dim, moves := m.n, m.dim, mv.Len()
	if nsigma != q || moves != q || mv.Base < 0 || mv.Base >= n || len(mv.Give) != dim || len(mv.Take) != dim || mv.Group < 1 || dim%mv.Group != 0 {
		panic(fmt.Sprintf("gp: moved block got %d mu and %d sigma for %d moves of input %d, dimension %d/%d in groups of %d; model of %d inputs, dimension %d",
			q, nsigma, moves, mv.Base, len(mv.Give), len(mv.Take), mv.Group, n, dim))
	}
}

// fillMoved writes the K* columns of the q points mv describes into kstar,
// cut into the panels the solves read: model row by model row, row i's d²
// for every point straight into its place in each panel, then one Matérn
// transform over the whole block, which works element by element.
func (m *Incremental) fillMoved(s *PredictScratch, kstar []float64, mv *Moves, q int) {
	n, dim := m.n, m.dim
	pairs := m.movePairs(mv, q)
	s.panel = grow(s.panel, 2*dim)
	gi, ti := s.panel[:dim], s.panel[dim:2*dim]
	xp := m.xbuf[mv.Base]
	for i, xi := range m.xbuf[:n] {
		base := m.triAt(i, mv.Base)
		for k, x := range xi[:dim] {
			dp, dg, dt := x-xp[k], x-mv.Give[k], x-mv.Take[k]
			gi[k] = base + (dg*dg - dp*dp)
			ti[k] = dt*dt - dp*dp
		}
		for p0 := 0; p0 < q; p0 += panelWidth {
			w := min(panelWidth, q-p0)
			row := kstar[n*p0+i*w : n*p0+i*w+w]
			for c, p := range pairs[p0 : p0+w] {
				// max(0, ·) without a branch: a set sign bit clears every bit.
				v := math.Float64bits(gi[p.from] + ti[p.to])
				row[c] = math.Float64frombits(v &^ uint64(int64(v)>>63))
			}
		}
	}
	linalg.Matern52Row(kstar[:n*q], m.kernel.LengthScale, m.kernel.Variance)
}

// movePairs lists the coordinate pairs of mv's q points, in order, into the
// model's buffer, once per block, so that each row of the fill is one
// branch-free sweep.
func (m *Incremental) movePairs(mv *Moves, q int) []move {
	pairs := slices.Grow(m.moveBuf[:0], q)
	for lo := 0; lo < len(mv.Give); lo += mv.Group {
		for a := lo; a < lo+mv.Group; a++ {
			for b := lo; b < lo+mv.Group && !math.IsNaN(mv.Give[a]); b++ {
				if b != a {
					pairs = append(pairs, move{int32(a), int32(b)})
				}
			}
		}
	}
	m.moveBuf = pairs
	return pairs
}

// RepredictBlockInto re-scores the points b was last filled for under the
// model's current targets: sigma is copied from b and mu recomputed from
// b's projections, both bit-identical to filling b afresh the way it was
// filled (PredictBlockInto or PredictMovedBlockInto). It reports false,
// writing nothing, when b is stale — the model's inputs, kernel or factor
// changed since b was filled — or was filled for a group of another size
// than len(mu), or is a shadow whose projections do not cover the basis.
func (m *Incremental) RepredictBlockInto(b *Block, mu, sigma []float64) bool {
	q := len(mu)
	if b.epoch != m.epoch || len(sigma) != q || len(b.data) != blockLen(m.n, q) && !m.covers(b, q) {
		return false
	}
	copy(sigma, b.tail())
	m.blockMeans(b, mu)
	return true
}

// ShadowBlock keeps in sh what of b outlives b's K* columns — its σ,
// projections and stamps — so that the group can be re-scored from sh while
// the model's epoch stands (ReviveMovedBlockInto), and reports whether it
// did: a stale block is not kept, and sh is then left as it was.
func (m *Incremental) ShadowBlock(sh, b *Block) bool {
	if b.epoch != m.epoch || len(b.data) == 0 {
		return false
	}
	sh.epoch, sh.data = b.epoch, append(sh.data[:0], b.tail()...)
	return true
}

// ReviveMovedBlockInto re-scores the points mv describes from sh, a shadow
// of a block filled for them (ShadowBlock, or b itself when b is a shadow),
// leaving b their block, and reports whether it could: not when sh is stale
// or of another group size. σ comes from sh. When sh's projections cover
// the model's basis, μ is their weighted sum and b stays a shadow;
// otherwise K* is refilled from mv into b, without the triangular solve, and
// the missing projections are taken from it (refilled). Either way mu and
// sigma are the bits a fresh PredictMovedBlockInto writes.
func (m *Incremental) ReviveMovedBlockInto(s *PredictScratch, b, sh *Block, mu, sigma []float64, mv *Moves) (ok, refilled bool) {
	n, q := m.n, len(mu)
	tail := sh.tail()
	if sh.epoch != m.epoch || len(tail) != tailLen(q) || len(sigma) != q {
		return false, false
	}
	if m.covers(sh, q) {
		if b != sh {
			b.epoch, b.data = sh.epoch, append(b.data[:0], tail...)
		}
		copy(sigma, tail)
		m.blockMeans(b, mu)
		return true, false
	}
	m.checkMoves(mv, q, len(sigma))
	data := s.blockData(b, n, q)
	copy(data[n*q:], tail) // a memmove: tail may be b's own
	b.epoch, b.data = sh.epoch, data
	m.fillMoved(s, data[:n*q], mv, q)
	copy(sigma, data[n*q:])
	m.blockMeans(b, mu)
	return true, true
}

// covers reports whether b, filled for q points, holds a projection of
// every basis vector α weighs, so that its means need no K*.
func (m *Incremental) covers(b *Block, q int) bool {
	tail := b.tail()
	if m.goals == 0 || len(tail) != tailLen(q) {
		return false
	}
	stamp := tail[len(tail)-3:]
	return stamp[0] == float64(m.stats.BasisBuilds) && int(stamp[1]) == m.active()
}

// fillBlock stamps b, whose K* and σ were just filled, with the model's
// epoch, its largest σ, no projections and its point count, and writes its
// means.
func (m *Incremental) fillBlock(b *Block, mu []float64) {
	q := len(mu)
	b.epoch = m.epoch
	stamp := b.data[len(b.data)-3:]
	stamp[0], stamp[1], stamp[2] = 0, 0, float64(q)
	tail := b.tail()
	_, tail[ext(q)] = extremes(tail[:q])
	m.blockMeans(b, mu)
}

// extremes returns the least and the greatest of v, NaN when v holds one,
// and zeros when v is empty.
func extremes(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// blockMeans writes the means of b's q = len(mu) points. Under a goal
// basis they are mean + Σ_k coef_k·(K*ᵀb_k), the projections kept in b and
// the missing ones taken first (all of them when b's generation is not the
// model's); a panel's projection is one DotsInto, as panelMeans takes
// K*ᵀα, so one goal's means have panelMeans' bits. Without a basis — α was
// solved, after a Reset or an Append — they are panelMeans over K*. Only
// the missing projections and the solved means read K*, so a shadow whose
// projections cover the basis needs none.
func (m *Incremental) blockMeans(b *Block, mu []float64) {
	n, q := m.n, len(mu)
	kstar := b.data[:len(b.data)-tailLen(q)]
	if m.goals == 0 {
		for p0 := 0; p0 < q; p0 += panelWidth {
			p1 := min(p0+panelWidth, q)
			panelMeans(mu[p0:p1], kstar[n*p0:n*p1], m.alpha, m.mean)
		}
		return
	}
	tail := b.tail()
	proj, x, stamp := tail[q:ext(q)], tail[ext(q)+1:ext(q)+1+2*nproj], tail[len(tail)-3:]
	have, k := int(stamp[1]), m.active()
	if stamp[0] != float64(m.stats.BasisBuilds) {
		have = 0
	}
	for j := have; j < k; j++ {
		pj, bj := proj[j*q:(j+1)*q], m.slot(slotBeta+j)
		for p0 := 0; p0 < q; p0 += panelWidth {
			p1 := min(p0+panelWidth, q)
			linalg.DotsInto(pj[p0:p1], kstar[n*p0:n*p1], bj)
		}
		x[j], x[nproj+j] = extremes(pj)
	}
	stamp[0], stamp[1] = float64(m.stats.BasisBuilds), float64(k)
	weigh(mu, m.basis[:k], proj, q)
	for c := range mu {
		mu[c] = m.mean + mu[c]
	}
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

// predictBatch is the batch-scoring kernel behind PredictBlockInto and
// PredictBatchInto. It walks pts panel by panel, the panels Points already
// holds; panel p's cross-covariances are kept as an n×w row-major matrix at
// kstar[n·p·panelWidth:], so kstar (n·pts.Len() entries) can outlive the
// call. Each panel is filled and then solved while it is still in cache;
// PredictMeansInto and PredictSigmasInto run the same two stages, one over
// every panel before the other. Every stage accumulates per point in the
// order GP.Predict does: kstar entries are independent; the matrix solve's
// column c replays SolveLowerInto exactly (columns are independent, so the
// panel cut does not show); the mean and squared-norm accumulators run
// over model rows in ascending order, matching linalg.Dot.
func (m *Incremental) predictBatch(s *PredictScratch, kstar, mu, sigma []float64, pts *Points) {
	q := pts.Len()
	if len(mu) != q || len(sigma) != q {
		panic(fmt.Sprintf("gp: PredictBatch got %d mu and %d sigma for %d points", len(mu), len(sigma), q))
	}
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		kpanel := kstar[m.n*p0 : m.n*p1]
		m.fillPanel(kpanel, mu[p0:p1], pts.panel(p0, p1))
		m.solvePanel(s, kpanel, sigma[p0:p1])
	}
}

// fillPanel writes the cross-covariances of the dim-major panel pt of
// len(mu) points into kpanel (n×len(mu), row-major) and the points'
// posterior means into mu.
func (m *Incremental) fillPanel(kpanel, mu, pt []float64) {
	fillRowsMatern52(kpanel, len(mu), m.xbuf[:m.n], pt, m.kernel)
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

// fillRowsMatern52 is the cross-covariance fill of the dim-major panel pt
// of w points: the squared distances of model row i into dst[i·stride:][:w],
// four rows per sweep of the panel, then the Matérn transform of the rows,
// both linalg column kernels. Each element's value is Matern52.Eval's
// expression sequence — the squared distance still sums dimension-ascending
// per element, the transform is Eval's formula with math.Exp's own
// rounding — so splitting the loops only lets independent elements share
// vector lanes; results stay bit-identical to Eval's. The transform works
// per element, so when the rows are contiguous (stride w, the pool's
// panel) it runs once over all of them, and otherwise once per row.
func fillRowsMatern52(dst []float64, stride int, xs [][]float64, pt []float64, k Matern52) {
	if len(xs) == 0 {
		return
	}
	w := 0
	if len(xs[0]) > 0 {
		w = len(pt) / len(xs[0])
	}
	linalg.SquaredDistanceRowsInto(dst[:(len(xs)-1)*stride+w], stride, pt, xs)
	if stride == w {
		linalg.Matern52Row(dst[:len(xs)*w], k.LengthScale, k.Variance)
		return
	}
	for i := range xs {
		linalg.Matern52Row(dst[i*stride:i*stride+w:i*stride+w], k.LengthScale, k.Variance)
	}
}

// posteriorBatch is the joint-posterior kernel behind GP.Posterior and
// Incremental.Posterior: the n×q cross-covariance takes the pool's fill,
// panel by panel, the q query solves collapse into one matrix triangular
// sweep, and the covariance Gram accumulates row-by-row over contiguous
// solve rows instead of strided column dots. Every entry's accumulation
// order matches the per-point Eval and linalg.Dot loops it replaced, so
// Thompson sampling sees bit-identical posteriors.
func posteriorBatch(pts *Points, xs [][]float64, alpha []float64, chol *linalg.Cholesky, kernel Matern52, mean float64) ([]float64, *linalg.Matrix) {
	q := pts.Len()
	n := len(xs)
	mu := make([]float64, q)
	kmat := linalg.NewMatrix(n, q)
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		fillRowsMatern52(kmat.Data[p0:], q, xs, pts.panel(p0, p1), kernel)
	}
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
	prior := make([]float64, q)
	for i := 0; i < q; i++ {
		row := prior[:i+1]
		for j := range row {
			row[j] = pts.squaredDistance(i, j)
		}
		linalg.Matern52Row(row, kernel.LengthScale, kernel.Variance)
		for j, k := range row {
			v := k - cov.Data[i*q+j]
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return mu, cov
}
