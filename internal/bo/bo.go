// Package bo implements the Bayesian-optimization machinery SATORI uses to
// navigate the resource-partitioning configuration space (Sec. III-A):
// acquisition functions over a Gaussian-process posterior and the
// suggest step that maximizes one over a candidate set.
//
// The paper's configuration is Expected Improvement over a Matérn 5/2 GP;
// UCB and Probability of Improvement are included for ablations. Candidate
// generation over the discrete configuration space is the caller's job
// (see internal/core), keeping this package purely numerical.
package bo

import (
	"errors"
	"math"

	"satori/internal/gp"
	"satori/internal/linalg"
	"satori/internal/stats"
)

// Acquisition scores a candidate from its posterior mean/stddev and the
// incumbent best observation. Maximization convention: higher is better.
type Acquisition interface {
	Score(mu, sigma, best float64) float64
	Name() string
}

// EI is the Expected Improvement acquisition, SATORI's choice: it balances
// exploration and exploitation at low evaluation cost.
type EI struct {
	// Xi >= 0 is the exploration margin; 0 is the textbook EI.
	Xi float64
}

// Score implements Acquisition.
func (a EI) Score(mu, sigma, best float64) float64 {
	s, _ := a.scoreAbove(mu, sigma, best, math.Inf(-1))
	return s
}

// scoreAbove is Score for a caller that only wants a score above floor:
// it reports ok = false, evaluating neither φ nor Φ, when the ceiling
// proves the score does not exceed floor. A NaN fails the test and takes
// the full expression.
func (a EI) scoreAbove(mu, sigma, best, floor float64) (float64, bool) {
	improve := mu - best - a.Xi
	if sigma <= 0 {
		// Deterministic prediction: improvement is certain or impossible.
		return math.Max(improve, 0), true
	}
	z := improve / sigma
	if eiCeiling(improve, z, sigma) <= floor {
		return 0, false
	}
	return improve*stdNormCDF(z) + sigma*stdNormPDF(z), true
}

// Ceiling returns an upper bound on the EI that Score computes, fused or
// not, at (mu, σ′, best) for every σ′ <= sigma (a NaN score aside), or
// +Inf where it gives none: when mu clears best + Xi, or anything is NaN.
func (a EI) Ceiling(mu, sigma, best float64) float64 {
	improve := mu - best - a.Xi
	return eiCeiling(improve, improve/sigma, sigma)
}

// eiCeiling is Ceiling from Score's own improve and z = improve/sigma.
// For z <= 0, EI = σ·(φ(z) + z·Φ(z)), and the second factor falls as z²
// grows (its derivative in |z| is −Φ(z)), so its value at the start of
// z²'s 1/16-wide cell covers the cell, and the last entry every z² past
// it. The table's relative margin covers the rounding of the computed
// score (DESIGN.md §4); a ceiling below 2⁻¹⁰⁰⁰ is refused, because gradual
// underflow in the score is absolute, not relative, error.
func eiCeiling(improve, z, sigma float64) float64 {
	if !(improve <= 0) {
		return math.Inf(1)
	}
	zz := z * z
	k := len(unitEI) - 1
	if zz < float64(k)/16 {
		k = int(zz * 16)
	}
	c := sigma * unitEI[k]
	if !(c >= 0x1p-1000) {
		return math.Inf(1)
	}
	return c
}

// unitEI[k] is EI at σ = 1 and z = −√(k/16), raised by a relative 2⁻²⁰.
var unitEI = func() (t [16*16 + 1]float64) {
	for k := range t {
		z := -math.Sqrt(float64(k) / 16)
		t[k] = (z*stdNormCDF(z) + stdNormPDF(z)) * (1 + 0x1p-20)
	}
	return t
}()

// Name implements Acquisition.
func (a EI) Name() string { return "ei" }

// UCB is the Upper Confidence Bound acquisition μ + β·σ.
type UCB struct {
	// Beta >= 0 weighs the uncertainty bonus; 0 degenerates to pure
	// exploitation of the posterior mean.
	Beta float64
}

// Score implements Acquisition.
func (a UCB) Score(mu, sigma, _ float64) float64 { return mu + a.Beta*sigma }

// Name implements Acquisition.
func (a UCB) Name() string { return "ucb" }

// PI is the Probability of Improvement acquisition.
type PI struct {
	// Xi >= 0 is the improvement margin.
	Xi float64
}

// Score implements Acquisition.
func (a PI) Score(mu, sigma, best float64) float64 {
	if sigma <= 0 {
		if mu > best+a.Xi {
			return 1
		}
		return 0
	}
	return stdNormCDF((mu - best - a.Xi) / sigma)
}

// Name implements Acquisition.
func (a PI) Name() string { return "pi" }

// stdNormPDF is the standard normal density.
func stdNormPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// stdNormCDF is the standard normal distribution function.
func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// PosteriorModel is the joint-posterior interface Thompson sampling needs.
type PosteriorModel interface {
	Posterior(points [][]float64) (mu []float64, cov *linalg.Matrix)
}

// ErrNoFiniteScore is returned when every candidate's acquisition score is
// NaN or infinite — a degenerate posterior (e.g. collapsed length-scale or
// an incumbent of ±Inf), not a legitimate "hold the current config"
// signal.
var ErrNoFiniteScore = errors.New("bo: no candidate produced a finite acquisition score")

// SuggestBatch scores the whole candidate pool with one PredictBatchInto
// call — matrix-level triangular solves against the model's shared
// Cholesky factor — and returns Argmax's choice over it. mu and sigma are
// caller-owned scratch of length len(candidates); scratch may be nil, in
// which case a temporary is allocated.
func SuggestBatch(m *gp.Incremental, scratch *gp.PredictScratch, acq Acquisition, best float64, candidates [][]float64, mu, sigma []float64) (int, float64, error) {
	if len(candidates) == 0 {
		return -1, 0, errors.New("bo: no candidates to score")
	}
	if scratch == nil {
		scratch = &gp.PredictScratch{}
	}
	m.PredictBatchInto(scratch, mu, sigma, candidates)
	return Argmax(acq, best, mu, sigma)
}

// Argmax returns the index of the candidate maximizing the acquisition,
// along with the winning score, over a pool whose posterior (mu[i],
// sigma[i]) is already known, however it was scored. Candidates whose score
// is NaN or ±Inf are skipped and the first strict maximum wins; if none
// survives, Argmax reports ErrNoFiniteScore rather than silently returning
// index -1.
func Argmax(acq Acquisition, best float64, mu, sigma []float64) (int, float64, error) {
	if len(mu) == 0 {
		return -1, 0, errors.New("bo: no candidates to score")
	}
	// EI skips φ and Φ for a candidate that provably cannot beat the
	// running maximum (EI.scoreAbove); every other acquisition scores in
	// full.
	ei, isEI := acq.(EI)
	bestIdx, bestScore := -1, math.Inf(-1)
	for i := range mu {
		var s float64
		ok := true
		if isEI {
			s, ok = ei.scoreAbove(mu[i], sigma[i], best, bestScore)
		} else {
			s = acq.Score(mu[i], sigma[i], best)
		}
		if !ok {
			continue
		}
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

// ThompsonSuggest implements Thompson sampling over a discrete candidate
// set: it draws ONE sample from the joint GP posterior at the candidates
// and returns the index of the sample's maximum. Exploration emerges from
// the posterior randomness instead of an explicit bonus, which makes it a
// natural comparison point for the paper's Expected Improvement choice
// (see the acquisition ablation).
func ThompsonSuggest(g PosteriorModel, rng *stats.RNG, candidates [][]float64) (int, error) {
	if len(candidates) == 0 {
		return -1, errors.New("bo: no candidates to score")
	}
	mu, cov := g.Posterior(candidates)
	m := len(candidates)
	// Jitter-escalated factorization: posterior covariances are
	// frequently near-singular when candidates cluster.
	var chol *linalg.Cholesky
	var err error
	for jitter := 1e-10; jitter < 1; jitter *= 100 {
		cj := cov.Clone()
		for i := 0; i < m; i++ {
			cj.Set(i, i, cj.At(i, i)+jitter)
		}
		chol, err = linalg.NewCholesky(cj)
		if err == nil {
			break
		}
	}
	if err != nil {
		// Degenerate posterior: fall back to the mean's argmax over the
		// finite entries.
		best := -1
		for i, v := range mu {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if best < 0 || v > mu[best] {
				best = i
			}
		}
		if best < 0 {
			return -1, ErrNoFiniteScore
		}
		return best, nil
	}
	z := make([]float64, m)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	best, bestVal := -1, math.Inf(-1)
	for i := 0; i < m; i++ {
		s := mu[i]
		for k := 0; k <= i; k++ {
			s += chol.LAt(i, k) * z[k]
		}
		if math.IsNaN(s) || math.IsInf(s, 0) {
			continue
		}
		if s > bestVal {
			best, bestVal = i, s
		}
	}
	if best < 0 {
		return -1, ErrNoFiniteScore
	}
	return best, nil
}
