// Package metrics implements the system-throughput and fairness objectives
// from Sec. II of the SATORI paper.
//
// Throughput can be expressed as the geometric mean of co-located job
// speedups, the harmonic mean of speedups, or the raw sum of instructions
// per second (the paper's evaluation default, Sec. IV). Fairness is Jain's
// fairness index 1/(1+CoV²) (default) or the unbounded 1−CoV form; both
// are computed over the speedups relative to each job's isolated
// (co-location-free) performance.
//
// The zero value of both metric types is an explicit Default* sentinel
// that resolves to the paper's evaluation pairing (SumIPS + JainIndex).
// This keeps "unset" distinguishable from an explicit request for any
// real metric — in particular GeoMeanSpeedup and JainIndex, which would
// otherwise alias the zero value.
//
// All metric values returned by Normalized* functions lie in [0, 1] so the
// SATORI objective f(x) = W_T·T(x) + W_F·F(x) can weigh them directly.
package metrics

import (
	"fmt"

	"satori/internal/stats"
)

// ThroughputMetric selects how system throughput is aggregated.
type ThroughputMetric int

const (
	// DefaultThroughput is the zero-value sentinel: "no explicit
	// choice". It resolves to SumIPS, the paper's evaluation default
	// (Sec. IV). Real metrics start at iota+1 so an explicit
	// GeoMeanSpeedup is never mistaken for an unset field.
	DefaultThroughput ThroughputMetric = iota
	// GeoMeanSpeedup is the geometric mean of per-job speedups
	// (Π s_i)^(1/N) — the paper's primary formulation.
	GeoMeanSpeedup
	// HarmonicMeanSpeedup is the harmonic mean of per-job speedups.
	HarmonicMeanSpeedup
	// SumIPS is the sum of instructions per second across jobs, the
	// default metric in the paper's evaluation (Sec. IV).
	SumIPS
	// P99Latency scores the tail-latency headroom of the co-location's
	// latency-critical jobs: the mean of clamp(target/p99, 0, 1) over
	// jobs carrying an SLO spec (see internal/slo). Per-job latency
	// lives in the control loop's SLO tracker, so layers below the loop
	// — and co-locations with no LC jobs — fall back to SumIPS.
	P99Latency
)

// Resolve maps the DefaultThroughput sentinel to the concrete default
// metric (SumIPS); explicit choices pass through unchanged.
func (m ThroughputMetric) Resolve() ThroughputMetric {
	if m == DefaultThroughput {
		return SumIPS
	}
	return m
}

// String returns the metric's short name.
func (m ThroughputMetric) String() string {
	switch m {
	case DefaultThroughput:
		return "default(sum-ips)"
	case GeoMeanSpeedup:
		return "geomean-speedup"
	case HarmonicMeanSpeedup:
		return "harmonic-speedup"
	case SumIPS:
		return "sum-ips"
	case P99Latency:
		return "p99-latency"
	default:
		return fmt.Sprintf("ThroughputMetric(%d)", int(m))
	}
}

// FairnessMetric selects how fairness is computed from speedups.
type FairnessMetric int

const (
	// DefaultFairness is the zero-value sentinel: "no explicit choice".
	// It resolves to JainIndex, the paper's default.
	DefaultFairness FairnessMetric = iota
	// JainIndex is Jain's fairness index 1/(1+CoV²) over speedups —
	// bounded in (0, 1], 1 meaning perfectly equal slowdowns.
	JainIndex
	// OneMinusCoV is the 1−CoV fairness metric; it is 1 under perfect
	// fairness and can be negative under severe unfairness.
	OneMinusCoV
	// SLOAttainment scores the fraction of latency-critical requests
	// served within their p99 targets: the mean AttainFrac over jobs
	// carrying an SLO spec (see internal/slo). Like P99Latency the
	// latency data lives in the control loop's SLO tracker; contexts
	// without it fall back to JainIndex.
	SLOAttainment
)

// Resolve maps the DefaultFairness sentinel to the concrete default
// metric (JainIndex); explicit choices pass through unchanged.
func (m FairnessMetric) Resolve() FairnessMetric {
	if m == DefaultFairness {
		return JainIndex
	}
	return m
}

// String returns the metric's short name.
func (m FairnessMetric) String() string {
	switch m {
	case DefaultFairness:
		return "default(jain)"
	case JainIndex:
		return "jain"
	case OneMinusCoV:
		return "one-minus-cov"
	case SLOAttainment:
		return "slo-attainment"
	default:
		return fmt.Sprintf("FairnessMetric(%d)", int(m))
	}
}

// Speedups converts per-job IPS observations into speedups relative to the
// per-job isolated baselines. Jobs with a non-positive baseline yield a
// speedup of 0 (they cannot be meaningfully normalized). The two slices
// must have equal length.
func Speedups(ips, isolated []float64) []float64 { return SpeedupsInto(nil, ips, isolated) }

// SpeedupsInto is Speedups writing into dst's storage, which is allocated
// only when its capacity is short of len(ips). It returns the speedups.
func SpeedupsInto(dst, ips, isolated []float64) []float64 {
	if len(ips) != len(isolated) {
		panic(fmt.Sprintf("metrics: Speedups length mismatch %d vs %d", len(ips), len(isolated)))
	}
	if cap(dst) < len(ips) {
		dst = make([]float64, len(ips))
	}
	s := dst[:len(ips)]
	for i := range ips {
		s[i] = 0
		if isolated[i] > 0 {
			s[i] = ips[i] / isolated[i]
		}
	}
	return s
}

// Throughput aggregates speedups (or raw IPS for SumIPS) with the chosen
// metric. For SumIPS pass the raw per-job IPS values.
func Throughput(m ThroughputMetric, values []float64) float64 {
	switch m.Resolve() {
	case GeoMeanSpeedup:
		return stats.GeoMean(values)
	case HarmonicMeanSpeedup:
		return stats.HarmonicMean(values)
	case SumIPS, P99Latency:
		// P99Latency needs per-job latency data, which only the control
		// loop's SLO tracker holds; at this layer it degrades to the
		// SumIPS aggregation it sits next to.
		return stats.Sum(values)
	default:
		panic("metrics: unknown throughput metric")
	}
}

// Fairness computes the chosen fairness metric over speedups.
func Fairness(m FairnessMetric, speedups []float64) float64 {
	cov := stats.CoV(speedups)
	switch m.Resolve() {
	case JainIndex, SLOAttainment:
		// SLOAttainment needs per-job latency data, which only the
		// control loop's SLO tracker holds; at this layer it degrades
		// to the JainIndex it sits next to.
		return 1 / (1 + cov*cov)
	case OneMinusCoV:
		return 1 - cov
	default:
		panic("metrics: unknown fairness metric")
	}
}

// NormalizedThroughput maps a throughput observation into [0, 1] as
// required by the SATORI objective (Sec. III-B). Speedup-based metrics are
// already in (0, 1] under partitioning (isolated performance is the
// ceiling) and are clamped defensively; SumIPS is normalized against the
// sum of isolated IPS, the natural upper envelope.
func NormalizedThroughput(m ThroughputMetric, ips, isolated []float64) float64 {
	return NormalizedThroughputInto(m, ips, isolated, nil)
}

// NormalizedThroughputInto is NormalizedThroughput computing any speedups
// it needs in scratch's storage (see SpeedupsInto).
func NormalizedThroughputInto(m ThroughputMetric, ips, isolated, scratch []float64) float64 {
	switch m := m.Resolve(); m {
	case GeoMeanSpeedup, HarmonicMeanSpeedup:
		t := Throughput(m, SpeedupsInto(scratch, ips, isolated))
		return stats.Clamp(t, 0, 1)
	case SumIPS, P99Latency:
		// See Throughput: without a latency tracker P99Latency scores
		// as SumIPS. The control loop substitutes the real headroom
		// score when LC jobs are present.
		denom := stats.Sum(isolated)
		if denom <= 0 {
			return 0
		}
		return stats.Clamp(stats.Sum(ips)/denom, 0, 1)
	default:
		panic("metrics: unknown throughput metric")
	}
}

// NormalizedFairness maps a fairness observation into [0, 1]. Jain's index
// is already bounded; 1−CoV has no lower bound and is clamped at 0 per the
// paper's normalization note in Sec. III-B.
func NormalizedFairness(m FairnessMetric, ips, isolated []float64) float64 {
	return NormalizedFairnessInto(m, ips, isolated, nil)
}

// NormalizedFairnessInto is NormalizedFairness computing the speedups in
// scratch's storage (see SpeedupsInto).
func NormalizedFairnessInto(m FairnessMetric, ips, isolated, scratch []float64) float64 {
	f := Fairness(m, SpeedupsInto(scratch, ips, isolated))
	return stats.Clamp(f, 0, 1)
}

// WorstSpeedup returns the minimum of the per-job speedups — the "worst
// performing job in a mix" quantity plotted in Fig. 9. An empty input
// yields 0.
func WorstSpeedup(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	return stats.Min(speedups)
}
