package bo

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"satori/internal/gp"
	"satori/internal/linalg"
	"satori/internal/stats"
)

func TestEIKnownValues(t *testing.T) {
	// With mu = best and sigma = 1, EI = phi(0) = 1/sqrt(2π).
	got := EI{}.Score(1, 1, 1)
	want := 1 / math.Sqrt(2*math.Pi)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EI(mu=best, sigma=1) = %g, want %g", got, want)
	}
	// Deterministic prediction below best: no improvement possible.
	if got := (EI{}).Score(0.5, 0, 1); got != 0 {
		t.Errorf("EI deterministic below best = %g, want 0", got)
	}
	// Deterministic prediction above best: improvement is certain.
	if got := (EI{}).Score(1.5, 0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("EI deterministic above best = %g, want 0.5", got)
	}
}

func TestEIMonotonicity(t *testing.T) {
	// EI increases in mu and, when mu <= best, increases in sigma.
	base := EI{}.Score(0.5, 0.2, 1)
	if (EI{}).Score(0.7, 0.2, 1) <= base {
		t.Error("EI not increasing in mu")
	}
	if (EI{}).Score(0.5, 0.5, 1) <= base {
		t.Error("EI not increasing in sigma below incumbent")
	}
	// Always non-negative.
	rng := stats.NewRNG(5)
	for i := 0; i < 1000; i++ {
		mu := rng.NormFloat64()
		sigma := rng.Float64()
		if v := (EI{}).Score(mu, sigma, 0); v < 0 {
			t.Fatalf("EI negative: %g at mu=%g sigma=%g", v, mu, sigma)
		}
	}
}

func TestEIXiReducesScore(t *testing.T) {
	plain := EI{}.Score(1, 0.5, 1)
	greedy := EI{Xi: 0.2}.Score(1, 0.5, 1)
	if greedy >= plain {
		t.Errorf("xi should shrink EI: %g >= %g", greedy, plain)
	}
}

func TestUCB(t *testing.T) {
	if got := (UCB{Beta: 2}).Score(1, 0.5, 0); got != 2 {
		t.Errorf("UCB = %g, want 2", got)
	}
	if got := (UCB{}).Score(1, 0.5, 0); got != 1 {
		t.Errorf("UCB beta=0 = %g, want mu", got)
	}
}

func TestPI(t *testing.T) {
	// mu = best, sigma > 0: probability exactly 1/2.
	if got := (PI{}).Score(1, 0.3, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("PI at incumbent = %g, want 0.5", got)
	}
	if got := (PI{}).Score(2, 0, 1); got != 1 {
		t.Errorf("PI certain improvement = %g, want 1", got)
	}
	if got := (PI{}).Score(0.5, 0, 1); got != 0 {
		t.Errorf("PI certain non-improvement = %g, want 0", got)
	}
	if got := (PI{Xi: 0.6}).Score(1.5, 0, 1); got != 0 {
		t.Errorf("PI with margin = %g, want 0", got)
	}
}

func TestAcquisitionNames(t *testing.T) {
	if (EI{}).Name() != "ei" || (UCB{}).Name() != "ucb" || (PI{}).Name() != "pi" {
		t.Error("acquisition names wrong")
	}
}

// fitted returns the incremental model fitted on (xs, ys).
func fitted(t *testing.T, xs [][]float64, ys []float64, opt gp.Options) *gp.Incremental {
	t.Helper()
	m := gp.NewIncremental(opt)
	if err := m.Reset(xs, ys); err != nil {
		t.Fatal(err)
	}
	return m
}

// suggest runs SuggestBatch with throwaway scratch.
func suggest(m BatchModel, acq Acquisition, best float64, cands [][]float64) (int, float64, error) {
	return SuggestBatch(m, nil, acq, best, cands, make([]float64, len(cands)), make([]float64, len(cands)))
}

func TestSuggestPrefersUnexploredOverKnownBad(t *testing.T) {
	// Observations: low values at x=0 and x=1; candidate far away should
	// win EI over a candidate at a known-bad location.
	xs := [][]float64{{0}, {0.05}, {1}, {0.95}}
	ys := []float64{0.1, 0.12, 0.1, 0.11}
	model := fitted(t, xs, ys, gp.Options{Kernel: gp.Matern52{LengthScale: 0.1, Variance: 1}, Noise: 1e-4})
	idx, score, err := suggest(model, EI{}, 0.12, [][]float64{{0.01}, {0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("SuggestBatch picked known-bad region (idx %d, score %g)", idx, score)
	}
}

func TestSuggestEmptyCandidates(t *testing.T) {
	model := fitted(t, [][]float64{{0}}, []float64{1}, gp.Options{})
	if _, _, err := suggest(model, EI{}, 1, nil); err == nil {
		t.Error("SuggestBatch accepted an empty candidate set")
	}
	if _, _, err := Argmax(EI{}, 1, nil, nil); err == nil {
		t.Error("Argmax accepted an empty pool")
	}
}

// boLoop is the textbook static-objective BO loop the two convergence
// tests below drive: refit on everything observed, suggest by EI against
// the incumbent.
type boLoop struct {
	xs [][]float64
	ys []float64
}

func (l *boLoop) observe(x []float64, y float64) {
	l.xs = append(l.xs, x)
	l.ys = append(l.ys, y)
}

func (l *boLoop) best() (x []float64, y float64) {
	i := 0
	for j := range l.ys {
		if l.ys[j] > l.ys[i] {
			i = j
		}
	}
	return l.xs[i], l.ys[i]
}

func (l *boLoop) suggest(t *testing.T, candidates [][]float64) int {
	t.Helper()
	model := fitted(t, l.xs, l.ys, gp.Options{Noise: 1e-6})
	_, incumbent := l.best()
	idx, _, err := suggest(model, EI{}, incumbent, candidates)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestOptimizerFindsMaximumOf1DFunction(t *testing.T) {
	// Maximize f(x) = -(x-0.3)² on [0,1]: optimum at 0.3.
	f := func(x float64) float64 { return -(x - 0.3) * (x - 0.3) }
	var opt boLoop
	// Seed with endpoints.
	opt.observe([]float64{0}, f(0))
	opt.observe([]float64{1}, f(1))
	var cands [][]float64
	for i := 0; i <= 50; i++ {
		cands = append(cands, []float64{float64(i) / 50})
	}
	for iter := 0; iter < 15; iter++ {
		x := cands[opt.suggest(t, cands)][0]
		opt.observe([]float64{x}, f(x))
	}
	if x, y := opt.best(); math.Abs(x[0]-0.3) > 0.06 {
		t.Errorf("BO converged to %g, want ~0.3 (best y = %g)", x[0], y)
	}
}

func TestOptimizerBeatsCoarseRandomSearchOn2D(t *testing.T) {
	// 2D multimodal-ish surface; BO with 20 evaluations should beat the
	// mean of random search with the same budget.
	f := func(x, y float64) float64 {
		return math.Sin(3*x)*math.Cos(2*y) + 0.5*x - 0.3*(x*x+y*y)
	}
	var cands [][]float64
	for i := 0; i <= 15; i++ {
		for j := 0; j <= 15; j++ {
			cands = append(cands, []float64{float64(i) / 15, float64(j) / 15})
		}
	}
	runBO := func(seed uint64) float64 {
		rng := stats.NewRNG(seed)
		var opt boLoop
		for i := 0; i < 3; i++ {
			c := cands[rng.Intn(len(cands))]
			opt.observe(c, f(c[0], c[1]))
		}
		for iter := 0; iter < 17; iter++ {
			c := cands[opt.suggest(t, cands)]
			opt.observe(c, f(c[0], c[1]))
		}
		_, y := opt.best()
		return y
	}
	runRandom := func(seed uint64) float64 {
		rng := stats.NewRNG(seed)
		best := math.Inf(-1)
		for i := 0; i < 20; i++ {
			c := cands[rng.Intn(len(cands))]
			if v := f(c[0], c[1]); v > best {
				best = v
			}
		}
		return best
	}
	boSum, rndSum := 0.0, 0.0
	const trials = 5
	for s := uint64(0); s < trials; s++ {
		boSum += runBO(s)
		rndSum += runRandom(s)
	}
	if boSum/trials < rndSum/trials {
		t.Errorf("BO mean %g worse than random search mean %g", boSum/trials, rndSum/trials)
	}
}

func TestStdNormHelpers(t *testing.T) {
	if math.Abs(stdNormCDF(0)-0.5) > 1e-12 {
		t.Error("CDF(0) != 0.5")
	}
	if math.Abs(stdNormPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Error("PDF(0) wrong")
	}
	if stdNormCDF(8) < 0.999999 || stdNormCDF(-8) > 1e-6 {
		t.Error("CDF tails wrong")
	}
}

func TestThompsonSuggestPrefersGoodRegions(t *testing.T) {
	// Observations make x=0.3 clearly best; Thompson samples should pick
	// candidates near it far more often than the known-bad corner.
	xs := [][]float64{{0}, {0.15}, {0.3}, {0.45}, {0.9}}
	ys := []float64{0.2, 0.6, 1.0, 0.6, 0.1}
	model, err := gp.Fit(xs, ys, gp.Options{Kernel: gp.Matern52{LengthScale: 0.2, Variance: 0.2}, Noise: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	cands := [][]float64{{0.28}, {0.32}, {0.88}, {0.92}}
	rng := stats.NewRNG(6)
	nearBest := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		idx, err := ThompsonSuggest(model, rng, cands)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 0 || idx == 1 {
			nearBest++
		}
	}
	if nearBest < trials*3/4 {
		t.Errorf("Thompson picked near-optimum only %d/%d times", nearBest, trials)
	}
}

func TestThompsonSuggestErrors(t *testing.T) {
	model, err := gp.Fit([][]float64{{0}}, []float64{1}, gp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ThompsonSuggest(model, stats.NewRNG(1), nil); err == nil {
		t.Error("empty candidates accepted")
	}
	// Duplicate candidates make the posterior singular; the jitter
	// escalation (or mean fallback) must still return a valid index.
	dup := [][]float64{{0.5}, {0.5}, {0.5}}
	idx, err := ThompsonSuggest(model, stats.NewRNG(1), dup)
	if err != nil || idx < 0 || idx >= 3 {
		t.Errorf("duplicate candidates: idx=%d err=%v", idx, err)
	}
}

// TestSuggestAllNaNScoresReturnsTypedError is the regression test for the
// silent-failure bug: the suggest step used to return idx=-1 with a NIL
// error when every score was NaN, and the engine then silently held the
// current config. It must surface ErrNoFiniteScore.
func TestSuggestAllNaNScoresReturnsTypedError(t *testing.T) {
	nan := math.NaN()
	idx, _, err := Argmax(EI{}, 0, []float64{nan, nan}, []float64{1, 1})
	if !errors.Is(err, ErrNoFiniteScore) {
		t.Fatalf("all-NaN scores: got idx=%d err=%v, want ErrNoFiniteScore", idx, err)
	}
	if idx != -1 {
		t.Fatalf("all-NaN scores: idx=%d, want -1", idx)
	}

	// A degenerate incumbent (best=+Inf) drives EI to NaN through a
	// perfectly healthy GP — the realistic trigger.
	model := fitted(t, [][]float64{{0}, {0.5}}, []float64{0.1, 0.2}, gp.Options{})
	if _, _, err := suggest(model, EI{}, math.Inf(1), [][]float64{{0.2}, {0.8}}); !errors.Is(err, ErrNoFiniteScore) {
		t.Fatalf("best=+Inf: err=%v, want ErrNoFiniteScore", err)
	}
}

// TestSuggestSkipsNonFiniteScores: candidates with NaN/Inf scores must be
// passed over, not win or poison the argmax, and of two equal maxima the
// first wins.
func TestSuggestSkipsNonFiniteScores(t *testing.T) {
	mu := []float64{math.NaN(), 2, math.Inf(1), 5, math.NaN(), 5}
	sigma := []float64{1, 0, 0, 0, 1, 0}
	idx, score, err := Argmax(UCB{}, 0, mu, sigma)
	if err != nil {
		t.Fatalf("Argmax: %v", err)
	}
	if idx != 3 || score != 5 {
		t.Fatalf("got idx=%d score=%g, want the first finite maximum idx=3 score=5", idx, score)
	}
}

// referenceArgmax is the acquisition's choice when every candidate is
// scored on its own by the textbook gp.Fit(...).Predict.
func referenceArgmax(t *testing.T, xs [][]float64, ys []float64, opt gp.Options, acq Acquisition, best float64, cands [][]float64) (int, float64, error) {
	t.Helper()
	full, err := gp.Fit(xs, ys, opt)
	if err != nil {
		t.Fatal(err)
	}
	mu, sigma := make([]float64, len(cands)), make([]float64, len(cands))
	for i, x := range cands {
		mu[i], sigma[i] = full.Predict(x)
	}
	return Argmax(acq, best, mu, sigma)
}

// TestSuggestAcceptsIncrementalModel pins the BatchModel seam: the
// incremental posterior must be scoreable by the acquisition machinery and
// agree with the from-scratch fit.
func TestSuggestAcceptsIncrementalModel(t *testing.T) {
	xs := [][]float64{{0}, {0.05}, {1}, {0.95}}
	ys := []float64{0.1, 0.12, 0.1, 0.11}
	opt := gp.Options{Kernel: gp.Matern52{LengthScale: 0.1, Variance: 1}, Noise: 1e-4}
	cands := [][]float64{{0.01}, {0.5}}
	fi, fs, err := referenceArgmax(t, xs, ys, opt, EI{}, 0.12, cands)
	if err != nil {
		t.Fatal(err)
	}
	ii, is, err := suggest(fitted(t, xs, ys, opt), EI{}, 0.12, cands)
	if err != nil {
		t.Fatal(err)
	}
	if fi != ii || math.Abs(fs-is) > 1e-9 {
		t.Fatalf("incremental suggest (%d, %g) != full (%d, %g)", ii, is, fi, fs)
	}
}

// nanPosterior is a PosteriorModel stub with an all-NaN joint posterior.
type nanPosterior struct{}

func (nanPosterior) Posterior(points [][]float64) ([]float64, *linalg.Matrix) {
	mu := make([]float64, len(points))
	for i := range mu {
		mu[i] = math.NaN()
	}
	cov := linalg.NewMatrix(len(points), len(points))
	for i := range mu {
		cov.Set(i, i, math.NaN())
	}
	return mu, cov
}

// TestThompsonSuggestAllNaNReturnsTypedError: same silent-failure class as
// Argmax — a fully degenerate posterior must surface ErrNoFiniteScore,
// not an arbitrary index.
func TestThompsonSuggestAllNaNReturnsTypedError(t *testing.T) {
	idx, err := ThompsonSuggest(nanPosterior{}, stats.NewRNG(1), [][]float64{{0}, {1}})
	if !errors.Is(err, ErrNoFiniteScore) {
		t.Fatalf("got idx=%d err=%v, want ErrNoFiniteScore", idx, err)
	}
}

// TestSuggestBatchMatchesSuggest: the batched pool scorer must choose the
// candidate, at the score (to 1e-9), that per-candidate scoring by the
// reference gp.Fit model chooses, across random models, pools, and
// acquisitions.
func TestSuggestBatchMatchesSuggest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	acqs := []Acquisition{EI{}, EI{Xi: 0.05}, UCB{Beta: 2}, PI{Xi: 0.01}}
	kernels := []gp.Kernel{nil, gp.Matern52{LengthScale: 0.4, Variance: 1.2}, gp.RBF{LengthScale: 0.8, Variance: 0.5}}
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(40)
		dim := 1 + rng.Intn(8)
		q := 1 + rng.Intn(64)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for d := range xs[i] {
				xs[i][d] = rng.Float64()
			}
			ys[i] = rng.NormFloat64()
		}
		opt := gp.Options{Kernel: kernels[trial%len(kernels)], Noise: 1e-4}
		m := fitted(t, xs, ys, opt)
		pool := make([][]float64, q)
		for i := range pool {
			pool[i] = make([]float64, dim)
			for d := range pool[i] {
				pool[i][d] = rng.Float64()
			}
		}
		best := ys[0]
		for _, y := range ys {
			if y > best {
				best = y
			}
		}
		acq := acqs[trial%len(acqs)]
		wantIdx, wantScore, wantErr := referenceArgmax(t, xs, ys, opt, acq, best, pool)
		mu := make([]float64, q)
		sigma := make([]float64, q)
		var scratch gp.PredictScratch
		gotIdx, gotScore, gotErr := SuggestBatch(m, &scratch, acq, best, pool, mu, sigma)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: err mismatch: batch %v, per-candidate %v", trial, gotErr, wantErr)
		}
		if gotIdx != wantIdx || math.Abs(gotScore-wantScore) > 1e-9 {
			t.Fatalf("trial %d: batch (%d, %v) != per-candidate (%d, %v)", trial, gotIdx, gotScore, wantIdx, wantScore)
		}
	}
}

// TestSuggestBatchEmptyAndNilScratch pins the edge-case contract: empty
// pools error even with no scratch at all, and a nil scratch is tolerated.
func TestSuggestBatchEmptyAndNilScratch(t *testing.T) {
	m := fitted(t, [][]float64{{0}, {1}}, []float64{0, 1}, gp.Options{})
	if _, _, err := SuggestBatch(m, nil, EI{}, 0, nil, nil, nil); err == nil {
		t.Fatal("empty candidates: want error, got nil")
	}
	pool := [][]float64{{0.25}, {0.75}}
	mu := make([]float64, 2)
	sigma := make([]float64, 2)
	idx, _, err := SuggestBatch(m, nil, EI{}, 1, pool, mu, sigma)
	if err != nil || idx < 0 || idx >= len(pool) {
		t.Fatalf("nil scratch: idx=%d err=%v", idx, err)
	}
}

// scoreArgmax is Argmax as it was before EI pruned: every candidate scored
// in full through acq.Score. It is the reference the pruning loop is held
// to.
func scoreArgmax(acq Acquisition, best float64, mu, sigma []float64) (int, float64, error) {
	if len(mu) == 0 {
		return -1, 0, errors.New("bo: no candidates to score")
	}
	bestIdx, bestScore := -1, math.Inf(-1)
	for i := range mu {
		s := acq.Score(mu[i], sigma[i], best)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			continue
		}
		if s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	if bestIdx < 0 {
		return -1, 0, ErrNoFiniteScore
	}
	return bestIdx, bestScore, nil
}

// oldEIScore is EI.Score's expression before it was written once, inside
// scoreAbove.
func oldEIScore(a EI, mu, sigma, best float64) float64 {
	improve := mu - best - a.Xi
	if sigma <= 0 {
		return math.Max(improve, 0)
	}
	z := improve / sigma
	return improve*stdNormCDF(z) + sigma*stdNormPDF(z)
}

// sameBits reports whether two scores are the same float64, any two NaNs
// counting as one.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkArgmaxEI asserts that Argmax under acq returns what scoreArgmax
// does: the same index, the same score bits and the same error. It
// returns how many candidates scoreAbove pruned along the reference's
// running maximum.
func checkArgmaxEI(t *testing.T, acq EI, best float64, mu, sigma []float64) (pruned int) {
	t.Helper()
	wantIdx, wantScore, wantErr := scoreArgmax(acq, best, mu, sigma)
	gotIdx, gotScore, gotErr := Argmax(acq, best, mu, sigma)
	if gotIdx != wantIdx || math.Float64bits(gotScore) != math.Float64bits(wantScore) ||
		(gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("Xi %v best %v mu %v sigma %v: Argmax (%d, %v, %v), scoring every candidate (%d, %v, %v)",
			acq.Xi, best, mu, sigma, gotIdx, gotScore, gotErr, wantIdx, wantScore, wantErr)
	}
	floor := math.Inf(-1)
	for i := range mu {
		s := acq.Score(mu[i], sigma[i], best)
		if _, ok := acq.scoreAbove(mu[i], sigma[i], best, floor); !ok {
			pruned++
			if s > floor {
				t.Fatalf("Xi %v best %v: pruned mu %v sigma %v below floor %v, but it scores %v", acq.Xi, best, mu[i], sigma[i], floor, s)
			}
			continue
		}
		if !math.IsNaN(s) && !math.IsInf(s, 0) && s > floor {
			floor = s
		}
	}
	return pruned
}

// edgeFloats are the values a pool entry draws from besides ordinary ones.
var edgeFloats = []float64{0, math.Copysign(0, -1), -1, math.SmallestNonzeroFloat64, 1e-310, -1e-310, 1e-300,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}

// TestArgmaxEIPruneMatchesScore: skipping Φ for candidates whose score is
// bounded by the running maximum changes no choice and no score, on pools
// of ordinary posteriors near the incumbent (where most pruning happens,
// ties included) laced with NaN, ±Inf and σ of 0, −0, negative,
// subnormal and +Inf.
func TestArgmaxEIPruneMatchesScore(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	bests := []float64{0.5, 0, -3, 1e-300, math.Inf(1), math.Inf(-1)}
	pruned, scored := 0, 0
	for trial := 0; trial < 20000; trial++ {
		acq := EI{Xi: []float64{0, 0.01}[trial%2]}
		best := bests[trial%len(bests)]
		if trial%7 == 0 {
			best = rng.NormFloat64()
		}
		q := 1 + rng.Intn(48)
		mu, sigma := make([]float64, q), make([]float64, q)
		for i := range mu {
			switch k := rng.Intn(10); {
			case k == 0:
				mu[i], sigma[i] = edgeFloats[rng.Intn(len(edgeFloats))], edgeFloats[rng.Intn(len(edgeFloats))]
			case k == 1:
				mu[i], sigma[i] = 0.5+0.1*rng.NormFloat64(), edgeFloats[rng.Intn(len(edgeFloats))]
			case k == 2 && i > 0: // an exact tie with an earlier candidate
				j := rng.Intn(i)
				mu[i], sigma[i] = mu[j], sigma[j]
			default: // the engine's shape: means near the incumbent, small σ
				mu[i], sigma[i] = 0.5+0.05*rng.NormFloat64(), 0.02*rng.Float64()
			}
		}
		pruned += checkArgmaxEI(t, acq, best, mu, sigma)
		scored += q
	}
	if pruned == 0 {
		t.Fatal("no candidate was pruned: the bound was never exercised")
	}
	t.Logf("%d of %d candidates pruned", pruned, scored)
}

// TestEIScoreUnchanged pins EI.Score to the expression it replaced, bit
// for bit, over ordinary and edge inputs.
func TestEIScoreUnchanged(t *testing.T) {
	vals := append([]float64{0.5, -0.25, 1, 3, 1e-8, -7.5}, edgeFloats...)
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 64; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)))
	}
	for _, xi := range []float64{0, 0.01} {
		a := EI{Xi: xi}
		for _, mu := range vals {
			for _, sigma := range vals {
				for _, best := range vals {
					if got, want := a.Score(mu, sigma, best), oldEIScore(a, mu, sigma, best); !sameBits(got, want) {
						t.Fatalf("EI{Xi: %v}.Score(%v, %v, %v) = %v, the old expression %v", xi, mu, sigma, best, got, want)
					}
				}
			}
		}
	}
}

// computedScores returns what EI a computes at (mu, sigma, best): Score,
// and the two contractions of its final sum into one math.FMA that the Go
// spec permits a compiler to make.
func computedScores(a EI, mu, sigma, best float64) [3]float64 {
	s := a.Score(mu, sigma, best)
	if !(sigma > 0) {
		return [3]float64{s, s, s}
	}
	improve := mu - best - a.Xi
	z := improve / sigma
	cdf, pdf := stdNormCDF(z), stdNormPDF(z)
	return [3]float64{s, math.FMA(improve, cdf, sigma*pdf), math.FMA(sigma, pdf, improve*cdf)}
}

// checkCeiling asserts that a's ceiling at (mu, sigma) bounds every
// computed score at (mu, sigmaP), and reports whether it was finite.
func checkCeiling(t *testing.T, a EI, mu, best, sigma, sigmaP float64) bool {
	t.Helper()
	c := a.Ceiling(mu, sigma, best)
	if improve := mu - best - a.Xi; !(improve <= 0) && !math.IsInf(c, 1) {
		t.Fatalf("Xi %v: mu %v best %v sigma %v: improve %v > 0 has ceiling %v", a.Xi, mu, best, sigma, improve, c)
	}
	for i, s := range computedScores(a, mu, sigmaP, best) {
		if s > c {
			t.Fatalf("Xi %v: mu %v best %v: score %d at sigma %v is %v, above the ceiling %v at sigma %v",
				a.Xi, mu, best, i, sigmaP, s, c, sigma)
		}
	}
	return !math.IsInf(c, 1)
}

// TestEICeilingBoundsComputedScore: the ceiling at (μ, σ) bounds the EI
// computed at (μ, σ′) for σ′ <= σ — Score and both FMA contractions — for
// |z| up to 40, ξ ∈ {0, 0.01}, σ′ down to 0, −0 and subnormals, and σ up to
// +Inf; NaN anywhere yields a NaN score or no ceiling.
func TestEICeilingBoundsComputedScore(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 1e-300, math.MaxFloat64, math.Inf(1), math.NaN()}
	finite, checked := 0, 0
	for trial := 0; trial < 200000; trial++ {
		a := EI{Xi: []float64{0, 0.01}[trial%2]}
		sigma := math.Pow(10, -8+10*rng.Float64())
		if trial%11 == 0 {
			sigma = edges[rng.Intn(len(edges))]
		}
		z := -40 * math.Pow(rng.Float64(), 3)
		if trial%13 == 0 {
			z = -z / 40 // improve > 0: no ceiling
		}
		best := rng.NormFloat64()
		mu := best + a.Xi + z*sigma
		if trial%17 == 0 {
			mu = best + a.Xi // improve rounds to 0 or a few ulps either side
		}
		sigmas := []float64{sigma, sigma * rng.Float64(), math.Nextafter(sigma, 0), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-310, math.NaN()}
		for _, sp := range sigmas {
			if sp > sigma {
				continue
			}
			if checkCeiling(t, a, mu, best, sigma, sp) {
				finite++
			}
			checked++
		}
	}
	// z on the table's cell starts, σ a power of two so that improve and z
	// carry no rounding of their own: only the margin separates the ceiling
	// from the score there.
	for k := 0; k <= 300; k++ {
		for _, sigma := range []float64{0x1p-40, 0x1p-4, 1, 0x1p20} {
			mu := -math.Sqrt(float64(k)/16) * sigma
			for _, sp := range []float64{sigma, math.Nextafter(sigma, 0)} {
				checkCeiling(t, EI{}, mu, 0, sigma, sp)
			}
		}
	}
	// Subnormal σ with an improve of the same scale: each product of the
	// score rounds to a multiple of 2⁻¹⁰⁷⁴, so relative margins mean nothing.
	for k := 1; k <= 64; k++ {
		sigma := float64(k) * math.SmallestNonzeroFloat64
		for j := 0; j <= 64; j++ {
			mu := -float64(j) / 8 * sigma
			for _, sp := range []float64{sigma, sigma / 2, math.SmallestNonzeroFloat64} {
				checkCeiling(t, EI{}, mu, 0, sigma, sp)
			}
		}
	}
	if finite < checked/2 {
		t.Fatalf("only %d of %d ceilings finite: the bound was hardly exercised", finite, checked)
	}
	t.Logf("%d of %d (μ, σ, σ′) cases had a finite ceiling", finite, checked)
}

// FuzzEICeiling runs TestEICeilingBoundsComputedScore's property over any
// (μ, best, ξ, σ) and any σ′ <= σ (σ′ = σ where the draw exceeds it).
func FuzzEICeiling(f *testing.F) {
	f.Add(0.4, 0.5, 0.0, 0.1, 0.1)
	f.Add(0.49, 0.5, 0.01, 0.02, 0.005)
	f.Add(-3.0, 0.5, 0.0, 0.1, 0.0)
	f.Add(0.5, 0.5, 0.0, 1e-310, 5e-324)
	f.Add(-1e300, 0.0, 0.0, math.Inf(1), 1.0)
	f.Add(0.3, 0.5, 0.01, 0.005, math.NaN())
	f.Fuzz(func(t *testing.T, mu, best, xi, sigma, sigmaP float64) {
		if sigmaP > sigma {
			sigmaP = sigma
		}
		checkCeiling(t, EI{Xi: xi}, mu, best, sigma, sigmaP)
	})
}

// FuzzArgmaxEI runs TestArgmaxEIPruneMatchesScore's property over any
// pool: the bytes are read as (μ, σ) pairs of raw float64 bits.
func FuzzArgmaxEI(f *testing.F) {
	pool := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(0.5, 0.0, pool(0.5, 0.01, 0.4, 0.01, 0.6, 0.02, 0.4, 0.01))
	f.Add(0.5, 0.01, pool(0.49, 0.001, 0.49, 0.001, 0.5, 0, 0.3, 1e-310))
	f.Add(inf, 0.0, pool(0.2, 0.1, 0.8, 0.3))
	f.Add(math.Inf(-1), 0.0, pool(0.2, 0.1, nan, 0.3, 0.1, inf))
	f.Add(0.0, 0.0, pool(-inf, 1, -inf, 5e-324, 0, math.Copysign(0, -1), -1, -0.5, nan, nan))
	f.Add(1.0, 0.01, pool(0.3, inf, 0.2, 0.2, 0.9, 0.05))
	f.Fuzz(func(t *testing.T, best, xi float64, raw []byte) {
		n := len(raw) / 16
		if n == 0 || n > 256 {
			return
		}
		mu, sigma := make([]float64, n), make([]float64, n)
		for i := range mu {
			mu[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			sigma[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
		}
		checkArgmaxEI(t, EI{Xi: xi}, best, mu, sigma)
	})
}
