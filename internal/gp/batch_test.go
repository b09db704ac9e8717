package gp

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"satori/internal/linalg"
)

// checkPooledAgainstSingles scores pool in one PredictBatchInto call and
// requires every candidate's result to equal, bit for bit, the same routine
// on that candidate's one-point pool: a candidate's score depends on
// neither its pool position nor its pool mates (panel cuts included), which
// is what lets the engine reuse and reorder scored blocks without moving
// committed goldens. It returns the pooled posterior.
func checkPooledAgainstSingles(t *testing.T, m *Incremental, pool [][]float64, ctx string) (mu, sigma []float64) {
	t.Helper()
	mu, sigma = make([]float64, len(pool)), make([]float64, len(pool))
	m.PredictBatchInto(&PredictScratch{}, mu, sigma, pool)
	for c, x := range pool {
		if wantMu, wantSigma := predictOne(m, x); mu[c] != wantMu || sigma[c] != wantSigma {
			t.Fatalf("%s: candidate %d of %d: pooled (%v, %v) != alone (%v, %v)",
				ctx, c, len(pool), mu[c], sigma[c], wantMu, wantSigma)
		}
	}
	return mu, sigma
}

// TestPredictBatchBitIdenticalToPerCandidate is the property test behind
// the engine's pool scoring: across random pools, dimensions and kernels,
// the batched scorer is position-independent to the bit (==; if this ever
// has to be weakened to a tolerance, block reuse no longer preserves golden
// outputs) and agrees with the textbook gp.Fit(...).Predict to 1e-9.
func TestPredictBatchBitIdenticalToPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	kernels := []Matern52{
		{}, // the heuristics
		{LengthScale: 0.6, Variance: 1.3},
		{LengthScale: 1.1, Variance: 0.8},
		{LengthScale: 0.09, Variance: 2.0},
	}
	for trial := 0; trial < 40; trial++ {
		opt := Options{Kernel: kernels[trial%len(kernels)]}
		n := 1 + rng.Intn(70)
		dim := 1 + rng.Intn(16)
		xs := randomInputs(rng, n, dim)
		ys := randomTargets(rng, xs)
		m := fitIncremental(t, opt, xs, ys)
		pool := randomInputs(rng, 1+rng.Intn(130), dim)
		mu, sigma := checkPooledAgainstSingles(t, m, pool, "fresh fit")
		g := fitReference(t, opt, xs, ys)
		for c, x := range pool {
			wantMu, wantSigma := g.Predict(x)
			if math.Abs(mu[c]-wantMu) > 1e-9 || math.Abs(sigma[c]-wantSigma) > 1e-9 {
				t.Fatalf("trial %d: candidate %d: batch (%v, %v) vs Fit.Predict (%v, %v)",
					trial, c, mu[c], sigma[c], wantMu, wantSigma)
			}
		}
	}
}

// TestIncrementalPredictBatchBitIdentical repeats the position-independence
// check after Append churn, so the batch path sees extend-built factors,
// not just fresh ones.
func TestIncrementalPredictBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		dim := 1 + rng.Intn(12)
		n := 3 + rng.Intn(40)
		xs := randomInputs(rng, n, dim)
		ys := randomTargets(rng, xs)
		m := NewIncremental(Options{})
		if err := m.Reset(xs[:n-2], ys[:n-2]); err != nil {
			t.Fatalf("trial %d: Reset: %v", trial, err)
		}
		for i := n - 2; i < n; i++ {
			if err := m.Append(xs[i], ys[:i+1]); err != nil {
				t.Fatalf("trial %d: Append: %v", trial, err)
			}
		}
		checkPooledAgainstSingles(t, m, randomInputs(rng, 1+rng.Intn(90), dim), "after appends")
	}
}

// TestPredictBatchConcurrentScratch runs batch scoring of one shared model
// from many goroutines with per-goroutine scratch. Run under -race this
// pins that PredictBatchInto performs no hidden writes to model state.
func TestPredictBatchConcurrentScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	xs := randomInputs(rng, 48, 8)
	m := fitIncremental(t, Options{}, xs, randomTargets(rng, xs))
	pool := randomInputs(rng, 64, 8)
	wantMu, wantSigma := make([]float64, len(pool)), make([]float64, len(pool))
	m.PredictBatchInto(&PredictScratch{}, wantMu, wantSigma, pool)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s PredictScratch
			mu := make([]float64, len(pool))
			sigma := make([]float64, len(pool))
			for iter := 0; iter < 20; iter++ {
				m.PredictBatchInto(&s, mu, sigma, pool)
				for c := range pool {
					if mu[c] != wantMu[c] || sigma[c] != wantSigma[c] {
						select {
						case errs <- errors.New("concurrent batch result diverged"):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestPredictBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	xs := randomInputs(rng, 4, 2)
	m := fitIncremental(t, Options{}, xs, randomTargets(rng, xs))
	var s PredictScratch
	// Empty pool is a no-op.
	m.PredictBatchInto(&s, nil, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("mismatched mu/sigma lengths did not panic")
		}
	}()
	m.PredictBatchInto(&s, make([]float64, 1), make([]float64, 2), randomInputs(rng, 2, 2))
}

// growSink keeps the buffers of TestGrowSlackIsFree on the heap.
var growSink []float64

// TestGrowSlackIsFree pins the two halves of grow's bargain: the capacity
// beyond n costs no heap (the runtime charges grow's buffer exactly what it
// charges make([]float64, n), small size classes and page-rounded large
// objects alike), and a block that gains one 40-point row per tick up to
// the engine's window reallocates far less often than once per row.
func TestGrowSlackIsFree(t *testing.T) {
	// The least of five readings: a stray allocation elsewhere in the
	// process can only add to one.
	charged := func(alloc func()) uint64 {
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			alloc()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	for _, n := range []int{1, 33, 40, 700, 2560, 4097, 5000, 10240} {
		exact := charged(func() { growSink = make([]float64, n) })
		got := charged(func() { growSink = grow(nil, n) })
		// An instrumented build materialises the make before appending it,
		// so there the buffer is charged beside a temporary of the same size.
		if got != exact && !(raceBuild && got == 2*exact) {
			t.Errorf("n = %d: grow charged %d bytes, make charges %d", n, got, exact)
		}
		if len(growSink) != n || cap(growSink)*8 > int(exact) {
			t.Errorf("n = %d: len %d cap %d within %d bytes", n, len(growSink), cap(growSink), exact)
		}
	}
	const q, window = 40, 64
	var buf []float64
	reallocs := 0
	for rows := 1; rows <= window; rows++ {
		if cap(buf) < rows*q {
			reallocs++
		}
		buf = grow(buf, rows*q)
		if len(buf) != rows*q {
			t.Fatalf("rows = %d: len %d", rows, len(buf))
		}
	}
	if reallocs > window/2 {
		t.Errorf("%d reallocations over %d one-row growths", reallocs, window)
	}
	t.Logf("%d reallocations over %d one-row growths", reallocs, window)
}

// TestIncrementalNearDuplicateAppendIndefinite is the regression test for
// the Extend round-off bugfix: a *near*-duplicate training point (not an
// exact copy) drives the Schur-complement pivot ≤ 0 purely by floating-
// point cancellation. Extend must surface the typed linalg.ErrIndefinite
// — not a silent NaN factor — and Append must recover via the rebuild
// fallback with a posterior that still matches a from-scratch Fit.
func TestIncrementalNearDuplicateAppendIndefinite(t *testing.T) {
	opt := Options{Kernel: Matern52{LengthScale: 0.7, Variance: 1.0}, Noise: 1e-16}
	rng := rand.New(rand.NewSource(53))
	xs := randomInputs(rng, 8, 3)
	ys := randomTargets(rng, xs)
	near := append([]float64(nil), xs[5]...)
	near[0] += 1e-13 // perturb below kernel resolution: pivot cancels to ≤ 0

	// First establish at the linalg level that this append is rejected
	// with the typed error (if it were accepted the gp-level fallback
	// would be untested).
	kernel := opt.Kernel
	km := linalg.NewMatrix(len(xs), len(xs))
	for i := range xs {
		for j := range xs {
			v := kernel.Eval(xs[i], xs[j])
			if i == j {
				v += opt.Noise
			}
			km.Set(i, j, v)
		}
	}
	chol, err := linalg.NewCholesky(km)
	if err != nil {
		t.Fatalf("base factorization: %v", err)
	}
	row := make([]float64, len(xs))
	for i := range xs {
		row[i] = kernel.Eval(near, xs[i])
	}
	extErr := chol.Extend(row, kernel.Eval(near, near)+opt.Noise)
	if !errors.Is(extErr, linalg.ErrIndefinite) {
		t.Fatalf("near-duplicate Extend: got %v, want ErrIndefinite", extErr)
	}

	// The incremental model must take the rebuild fallback and stay sane.
	m := NewIncremental(opt)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	refitsBefore := m.Stats().Refits
	xs = append(xs, near)
	ys = append(ys, ys[5])
	if err := m.Append(near, ys); err != nil {
		t.Fatalf("Append near-duplicate: %v", err)
	}
	if m.Stats().Refits != refitsBefore+1 {
		t.Fatalf("Append did not fall back to rebuild: refits %d -> %d",
			refitsBefore, m.Stats().Refits)
	}
	g := fitReference(t, opt, xs, ys)
	for trial := 0; trial < 5; trial++ {
		x := randomInputs(rng, 1, 3)[0]
		gotMu, gotSigma := predictOne(m, x)
		wantMu, wantSigma := g.Predict(x)
		if math.Abs(gotMu-wantMu) > 1e-6 || math.Abs(gotSigma-wantSigma) > 1e-6 {
			t.Fatalf("post-fallback posterior diverged: (%v,%v) vs (%v,%v)",
				gotMu, gotSigma, wantMu, wantSigma)
		}
	}
	for _, v := range m.alpha {
		if math.IsNaN(v) {
			t.Fatal("NaN leaked into alpha after fallback")
		}
	}
}

// nearCopy returns x moved by a random step of relative size 1e-12 to 1e-3.
func nearCopy(rng *rand.Rand, x []float64) []float64 {
	step := math.Pow(10, -12+9*rng.Float64())
	y := make([]float64, len(x))
	for d, v := range x {
		y[d] = v + step*rng.NormFloat64()
	}
	return y
}

// TestSigmaCeilingBoundsPosterior: PredictMeansInto then PredictSigmasInto
// is PredictBatchInto to the bit, the panel pass SigmaCeilingsInto writes
// sigmaCeilingAt's bits from any point of a panel on, and neither
// PriorSigma nor the ceiling is ever below the σ computed — over windows of
// 1 to 64 points in 1 to 72 dimensions with near-duplicate inputs, noise
// from 1e-9 to 1e-1 (jitter escalation included), heuristic and pinned
// Matérn 5/2 kernels, factors from Reset and from Append, and pools of
// random points, window points and points a hair off them. Then NaNs
// planted in the filled cross-covariances — in a column's first row, its
// last, or after its largest entry — make exactly their columns' ceilings
// NaN.
func TestSigmaCeilingBoundsPosterior(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	columns, tight, nans := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(64)
		dim := 1 + rng.Intn(72)
		noise := math.Pow(10, -9+8*rng.Float64())
		var kernel Matern52
		if trial%2 == 1 {
			kernel = Matern52{LengthScale: math.Pow(10, -1+1.5*rng.Float64()) * math.Sqrt(float64(dim)), Variance: math.Pow(10, -2+2*rng.Float64())}
		}
		xs := randomInputs(rng, n, dim)
		for i := 1; i < n; i++ {
			if rng.Intn(4) == 0 {
				xs[i] = nearCopy(rng, xs[rng.Intn(i)])
			}
		}
		ys := randomTargets(rng, xs)
		m := NewIncremental(Options{Kernel: kernel, Noise: noise})
		n0 := max(1, n-rng.Intn(4))
		err := m.Reset(xs[:n0], ys[:n0])
		for i := n0; i < n && err == nil; i++ {
			err = m.Append(xs[i], ys[:i+1])
		}
		if err != nil {
			t.Fatalf("trial %d: n %d dim %d noise %v: %v", trial, n, dim, noise, err)
		}
		pool := randomInputs(rng, 1+rng.Intn(70), dim)
		for c := range pool {
			switch rng.Intn(3) {
			case 0:
				pool[c] = append([]float64(nil), xs[rng.Intn(n)]...)
			case 1:
				pool[c] = nearCopy(rng, xs[rng.Intn(n)])
			}
		}
		q := len(pool)
		var s PredictScratch
		mu, sigma := make([]float64, q), make([]float64, q)
		m.PredictMeansInto(&s, mu, pointsOf(pool), Walks{})
		ceil := sigmaCeilings(t, m, &s, q, rng)
		m.PredictSigmasInto(&s, sigma)
		wantMu, wantSigma := make([]float64, q), make([]float64, q)
		m.PredictBatchInto(&PredictScratch{}, wantMu, wantSigma, pool)
		prior := m.PriorSigma()
		for c := range pool {
			if mu[c] != wantMu[c] || sigma[c] != wantSigma[c] {
				t.Fatalf("trial %d: point %d: split (%v, %v) != PredictBatchInto (%v, %v)", trial, c, mu[c], sigma[c], wantMu[c], wantSigma[c])
			}
			if !(sigma[c] <= ceil[c]) || !(sigma[c] <= prior) {
				t.Fatalf("trial %d: n %d dim %d noise %v jitter %v: point %d: σ %v above its ceiling %v or the prior %v",
					trial, n, dim, noise, m.Jitter(), c, sigma[c], ceil[c], prior)
			}
			columns++
			if ceil[c] < prior/2 {
				tight++
			}
		}
		// Every other column gets a NaN: in row 0, in the last row, or in the
		// row after its largest entry (the last row when that is the last).
		for c := 0; c < q; c += 2 {
			p0 := c - c%panelWidth
			w := min(panelWidth, q-p0)
			row := 0
			switch c / 2 % 3 {
			case 1:
				row = n - 1
			case 2:
				for i := 0; i < n; i++ {
					if math.Abs(s.kmat[n*p0+i*w+c-p0]) > math.Abs(s.kmat[n*p0+row*w+c-p0]) {
						row = i
					}
				}
				row = min(row+1, n-1)
			}
			s.kmat[n*p0+row*w+c-p0] = math.NaN()
		}
		for c, v := range sigmaCeilings(t, m, &s, q, rng) {
			if math.IsNaN(v) != (c%2 == 0) {
				t.Fatalf("trial %d: n %d: point %d's ceiling is %v with a NaN planted: %v", trial, n, c, v, c%2 == 0)
			}
			if math.IsNaN(v) {
				nans++
			}
		}
	}
	if tight < columns/4 || nans == 0 {
		t.Fatalf("only %d of %d ceilings below half the prior σ, %d NaN ones: the bound was hardly exercised", tight, columns, nans)
	}
	t.Logf("%d of %d ceilings below half the prior σ; %d NaN ones", tight, columns, nans)
}

// sigmaCeilingAt is the nearest-point ceiling of point c of those
// PredictMeansInto last filled into s, one point at a time: a strided
// maximum down c's column of its panel, then SigmaCeilingsInto's formula.
func sigmaCeilingAt(m *Incremental, s *PredictScratch, c int) float64 {
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

// sigmaCeilings returns the ceilings of the q points PredictMeansInto last
// filled into s, taken by SigmaCeilingsInto panel by panel: first from a
// point of the panel rng picks (its first when rng is nil), which must
// return the panel's end and leave the slots before that point alone, then
// from the panel's first. Every ceiling must be sigmaCeilingAt's, to the
// bit, or NaN where it is NaN.
func sigmaCeilings(t testing.TB, m *Incremental, s *PredictScratch, q int, rng *rand.Rand) []float64 {
	t.Helper()
	ceil, probe := make([]float64, q), make([]float64, q)
	for p0 := 0; p0 < q; p0 += panelWidth {
		p1 := min(p0+panelWidth, q)
		i := p0
		if rng != nil {
			i += rng.Intn(p1 - p0)
		}
		for c := range probe {
			probe[c] = -1
		}
		if end := m.SigmaCeilingsInto(s, probe, i); end != p1 {
			t.Fatalf("the pass from point %d of %d ended at %d, not at its panel's end %d", i, q, end, p1)
		}
		for c, v := range probe {
			if v == -1 == (c >= i && c < p1) {
				t.Fatalf("the pass from point %d (panel [%d, %d)) wrote %v at point %d", i, p0, p1, v, c)
			}
		}
		m.SigmaCeilingsInto(s, ceil, p0)
	}
	for c, v := range ceil {
		if want := sigmaCeilingAt(m, s, c); !sameFloat(v, want) && !(math.IsNaN(v) && math.IsNaN(want)) {
			t.Fatalf("point %d of %d: the panel pass's ceiling %v (%#x), one point at a time %v (%#x)", c, q, v, math.Float64bits(v), want, math.Float64bits(want))
		}
	}
	return ceil
}

// posteriorEval is posteriorBatch as it was before the cross-covariance
// took the pool's fill: one Eval per (window point, query point). It is the
// oracle TestPosteriorMatchesEvalOracle holds the fill to.
func posteriorEval(points [][]float64, xs [][]float64, alpha []float64, chol *linalg.Cholesky, kernel Matern52, mean float64) ([]float64, *linalg.Matrix) {
	q := len(points)
	n := len(xs)
	mu := make([]float64, q)
	kmat := linalg.NewMatrix(n, q)
	for i, xi := range xs {
		row := kmat.Data[i*q : i*q+q]
		for c, x := range points {
			row[c] = kernel.Eval(x, xi)
		}
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
	for i := 0; i < q; i++ {
		for j := 0; j <= i; j++ {
			v := kernel.Eval(points[i], points[j]) - cov.Data[i*q+j]
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return mu, cov
}

// TestPosteriorMatchesEvalOracle: Thompson sampling's joint posterior is
// unchanged by the shared fill — Incremental.Posterior's mean and
// covariance equal posteriorEval's by Float64bits, for heuristic and pinned
// kernels, windows of 1 to 64 points and pools of 1 to 70 (some on either
// side of panelWidth), with pool points on and off the window.
func TestPosteriorMatchesEvalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	kernels := []Matern52{{}, {LengthScale: 0.5, Variance: 1.0}, {LengthScale: 0.05, Variance: 0.3}}
	pools := []int{1, 2, panelWidth - 1, panelWidth, panelWidth + 1, 2*panelWidth + 1, 70}
	entries := 0
	for trial := 0; trial < 60; trial++ {
		kernel := kernels[trial%len(kernels)]
		n := 1 + rng.Intn(64)
		if trial < 2 {
			n = []int{1, 64}[trial]
		}
		dim := 1 + rng.Intn(12)
		xs := randomInputs(rng, n, dim)
		m := fitIncremental(t, Options{Kernel: kernel, Noise: 1e-4}, xs, randomTargets(rng, xs))
		q := pools[trial%len(pools)]
		if trial%3 == 2 {
			q = 1 + rng.Intn(70)
		}
		pool := randomInputs(rng, q, dim)
		for c := range pool {
			if rng.Intn(4) == 0 {
				pool[c] = append([]float64(nil), xs[rng.Intn(n)]...)
			}
		}
		mu, cov := m.Posterior(pointsOf(pool))
		wantMu, wantCov := posteriorEval(pool, m.xbuf[:m.n], m.alpha, m.chol, m.kernel, m.mean)
		for c := range mu {
			if math.Float64bits(mu[c]) != math.Float64bits(wantMu[c]) {
				t.Fatalf("trial %d (n %d, q %d, %+v): mean %d is %v, the Eval oracle %v", trial, n, q, m.kernel, c, mu[c], wantMu[c])
			}
		}
		for i, v := range cov.Data {
			if math.Float64bits(v) != math.Float64bits(wantCov.Data[i]) {
				t.Fatalf("trial %d (n %d, q %d, %+v): cov (%d, %d) is %v, the Eval oracle %v", trial, n, q, m.kernel, i/q, i%q, v, wantCov.Data[i])
			}
		}
		entries += q + q*q
	}
	t.Logf("%d posterior entries compared", entries)
}

// TestRepredictBlockRejectsOtherSizes pins that a block only re-scores into
// buffers of the size it was filled for, and that the zero Block is stale.
func TestRepredictBlockRejectsOtherSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := randomInputs(rng, 10, 3)
	m := NewIncremental(Options{})
	if err := m.Reset(xs, randomTargets(rng, xs)); err != nil {
		t.Fatal(err)
	}
	var blk Block
	mu, sigma := make([]float64, 5), make([]float64, 5)
	if m.RepredictBlockInto(&blk, nil, nil) {
		t.Fatal("zero Block reported fresh")
	}
	m.PredictBlockInto(&PredictScratch{}, &blk, mu, sigma, pointsOf(randomInputs(rng, 5, 3)))
	if m.RepredictBlockInto(&blk, mu[:4], sigma[:4]) {
		t.Fatal("block filled for 5 points re-scored into 4")
	}
	if !m.RepredictBlockInto(&blk, mu, sigma) {
		t.Fatal("fresh block reported stale")
	}
}
