// Package policy defines the interface every resource-partitioning
// strategy implements (SATORI and all competing techniques of Sec. IV),
// plus the Random baseline.
//
// A Policy sees one Observation per 100 ms monitoring interval — the
// noisy per-job IPS, the current isolated baselines, and the normalized
// throughput/fairness scores computed from them — and returns the
// configuration to run during the next interval. The experiment harness
// (internal/harness) owns the clock, the baseline refresh schedule and the
// metric computation, so policies stay pure decision logic.
package policy

import (
	"satori/internal/resource"
	"satori/internal/stats"
)

// Observation is what a policy sees at the end of a monitoring interval.
type Observation struct {
	// Tick counts completed 100 ms intervals (first observation: 1).
	Tick int
	// Time is the elapsed co-location time in seconds.
	Time float64
	// IPS is the observed per-job instructions/second over the
	// interval (noisy, as a pqos-style monitor reports).
	IPS []float64
	// Isolated is the per-job isolated-execution baseline currently in
	// force (re-measured by the harness on the equalization schedule).
	Isolated []float64
	// Speedups is IPS normalized by Isolated, per job.
	Speedups []float64
	// Throughput is the normalized system-throughput score in [0, 1]
	// under the experiment's throughput metric.
	Throughput float64
	// Fairness is the normalized fairness score in [0, 1] under the
	// experiment's fairness metric.
	Fairness float64
	// BaselineReset is true when Isolated was re-measured just before
	// this observation (start of run, equalization boundary, or job
	// arrival/departure).
	BaselineReset bool
	// SLOViolating is the hysteretic SLO-violation state of the
	// co-location's latency-critical jobs (always false when there are
	// none). SLO-aware weight schedulers pin their goal arbitration to
	// recovery while it holds (core.WeightsSLOAware).
	SLOViolating bool
	// SLOAttainment is the mean fraction of latency-critical requests
	// served within their p99 targets this interval (0 when there are
	// no LC jobs).
	SLOAttainment float64
}

// Policy decides resource partitions from interval observations.
type Policy interface {
	// Name identifies the policy in results tables.
	Name() string
	// Decide returns the configuration for the next interval, given
	// the observation for the interval that just ended and the
	// configuration that produced it. Implementations must return a
	// valid configuration for their space; returning current unchanged
	// is always allowed.
	Decide(obs Observation, current resource.Config) resource.Config
}

// Static is the no-op policy: it keeps whatever configuration is current
// (the paper's unmanaged/equal-partition baseline when started from the
// equal split).
type Static struct{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Decide implements Policy.
func (Static) Decide(_ Observation, current resource.Config) resource.Config { return current }

// Random is the Random Search baseline of Sec. IV: every interval it
// installs a configuration sampled uniformly at random from all possible
// configurations, without repetition until the space is exhausted.
type Random struct {
	space *resource.Space
	rng   *stats.RNG
	seen  map[string]bool
	key   []byte // the last configuration's key, looked up without allocating
}

// NewRandom builds the Random policy over space with a deterministic
// seed.
func NewRandom(space *resource.Space, seed uint64) *Random {
	return &Random{
		space: space,
		rng:   stats.NewRNG(seed),
		seen:  make(map[string]bool),
	}
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Decide implements Policy.
func (r *Random) Decide(_ Observation, current resource.Config) resource.Config {
	// Without-repetition sampling: retry a bounded number of times,
	// then accept a repeat (and reset the seen set when the space is
	// effectively exhausted) — mirroring how a real implementation
	// keeps running for arbitrarily long experiments.
	for attempt := 0; attempt < 64; attempt++ {
		c := r.space.Random(r.rng)
		if r.key = c.AppendKey(r.key[:0]); !r.seen[string(r.key)] {
			r.seen[string(r.key)] = true
			return c
		}
	}
	r.seen = make(map[string]bool)
	c := r.space.Random(r.rng)
	r.seen[c.Key()] = true
	return c
}
