// Package common holds small helpers shared by the baseline partitioning
// policies (dCAT, CoPart, PARTIES): epoch-mean accumulation for
// trial-and-revert search, and speedup-ordering utilities.
package common

import "satori/internal/policy"

// Epoch accumulates a scalar score over a fixed number of ticks and
// reports its mean — the measurement quantum all trial-and-revert
// baselines use to judge whether a configuration change helped.
type Epoch struct {
	ticks int
	sum   float64
	n     int
}

// NewEpoch returns an accumulator spanning ticks observations (minimum 1).
func NewEpoch(ticks int) *Epoch {
	if ticks < 1 {
		ticks = 1
	}
	return &Epoch{ticks: ticks}
}

// Add folds one observation score. It returns the epoch mean and true
// when the epoch just completed; the accumulator resets automatically.
func (e *Epoch) Add(score float64) (mean float64, done bool) {
	e.sum += score
	e.n++
	if e.n < e.ticks {
		return 0, false
	}
	mean = e.sum / float64(e.n)
	e.sum, e.n = 0, 0
	return mean, true
}

// Reset discards any partial accumulation.
func (e *Epoch) Reset() { e.sum, e.n = 0, 0 }

// ArgMinMax returns the indices of the smallest and largest values.
// It panics on an empty slice.
func ArgMinMax(xs []float64) (argmin, argmax int) {
	if len(xs) == 0 {
		panic("common: ArgMinMax of empty slice")
	}
	for i, x := range xs {
		if x < xs[argmin] {
			argmin = i
		}
		if x > xs[argmax] {
			argmax = i
		}
	}
	return argmin, argmax
}

// BalancedObjective is the modified-PARTIES objective of Sec. IV: equal
// priority on normalized throughput and fairness.
func BalancedObjective(obs policy.Observation) float64 {
	return 0.5*obs.Throughput + 0.5*obs.Fairness
}
