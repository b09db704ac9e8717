// Package core implements SATORI itself: the Bayesian-optimization engine
// of Algorithm 1 with the dynamically re-prioritized multi-goal objective
// function of Secs. III-B and III-C.
//
// The engine runs as a policy over a resource.Space: every 100 ms it
// records the observed throughput and fairness of the configuration that
// just ran in separate per-goal records, recomputes the goal weights
// (equalization + prioritization components), reconstructs the scalar
// objective y = W_T·T + W_F·F for every recorded configuration in
// software (no re-sampling), refits the Gaussian-process proxy model, and
// picks the next configuration by maximizing Expected Improvement over a
// candidate pool.
package core

import (
	"satori/internal/stats"
)

// WeightMode selects how goal weights evolve over time.
type WeightMode int

const (
	// WeightsDynamic is full SATORI: short-term prioritization of one
	// goal bounded by long-term equalization (Sec. III-C).
	WeightsDynamic WeightMode = iota
	// WeightsStatic pins the weights at a constant split — the
	// "SATORI without dynamic prioritization" variant of Figs. 14(b),
	// 17 and 18 (and, with W_T∈{0,1}, the single-goal
	// Throughput/Fairness SATORI variants of Sec. IV).
	WeightsStatic
	// WeightsFavorStronger is the design ablation the paper reports
	// underperforms by ~5%: the prioritization weight favors the goal
	// that improved MORE in the previous period, instead of giving the
	// opportunity to the other goal.
	WeightsFavorStronger
	// WeightsSLOAware is WeightsDynamic with a violation override:
	// while the control loop reports a persistent SLO violation
	// (Observation.SLOViolating, fed in via SetSLOViolating), the final
	// weights pin to (floor, ceil) so the whole prioritization budget
	// backs the goal channel scoring SLO recovery. The period clocks
	// keep running on the pinned weights, so equalization repays the
	// throughput debt after the violation clears — short-term sacrifice,
	// long-term gains, applied to tail latency.
	WeightsSLOAware
)

// String names the mode.
func (m WeightMode) String() string {
	switch m {
	case WeightsDynamic:
		return "dynamic"
	case WeightsStatic:
		return "static"
	case WeightsFavorStronger:
		return "favor-stronger"
	case WeightsSLOAware:
		return "slo-aware"
	default:
		return "unknown"
	}
}

// Weights is the full decomposition of one tick's goal weights, as
// plotted in Fig. 14(a).
type Weights struct {
	// T and F are the final throughput and fairness weights of Eq. 5/6
	// (they always sum to 1).
	T, F float64
	// TE and FE are the equalization components (Eq. 3, normalized —
	// see DESIGN.md §1 for the faithfulness note).
	TE, FE float64
	// TP and FP are the prioritization components (Eq. 4).
	TP, FP float64
	// EqFrac is t_e/T_E, the blend factor: 0 right after an
	// equalization boundary, approaching 1 at the period's end.
	EqFrac float64
}

// Default weight bounds of Sec. III-C: prioritization can never push a
// goal's weight outside [0.25, 0.75], keeping the moving-goal-post BO
// process controlled.
const (
	DefaultWeightFloor = 0.25
	DefaultWeightCeil  = 0.75
)

// Scheduler computes the per-tick goal weights. The zero value is not
// usable; construct with NewScheduler.
type Scheduler struct {
	mode    WeightMode
	staticT float64
	tpTicks int
	teTicks int
	floor   float64
	ceil    float64

	te    int     // completed ticks in the current equalization period
	sumWT float64 // Σ W_T over those ticks
	tp    int     // completed ticks in the current prioritization period
	// Improvement windows: Δ_T/Δ_F compare the mean observation over
	// the first and last thirds of the prioritization period, which
	// keeps Eq. 4 responsive to real trends rather than to single-tick
	// measurement noise.
	winLen           int
	earlyT, earlyF   float64 // sums over the first winLen ticks
	earlyN           int
	lateT, lateF     []float64 // ring of the most recent winLen ticks
	lateIdx, lateCnt int
	wTP              float64 // current prioritization weight for throughput
	wFP              float64

	// sloViolating is the loop-fed violation state consulted under
	// WeightsSLOAware; other modes ignore it.
	sloViolating bool
}

// SchedulerOptions configures NewScheduler.
type SchedulerOptions struct {
	// Mode defaults to WeightsDynamic.
	Mode WeightMode
	// PrioritizationTicks is T_P in 100 ms ticks (default 10 = 1 s).
	PrioritizationTicks int
	// EqualizationTicks is T_E in 100 ms ticks (default 100 = 10 s).
	EqualizationTicks int
	// WeightFloor and WeightCeil override the [0.25, 0.75] bounds of
	// Sec. III-C (used by the bounds ablation). The zero value keeps the
	// defaults; an explicit 0 floor (the truly unbounded ablation) is
	// expressed by also setting WeightFloorSet — the same sentinel pattern
	// as Options.StaticWTSet. A ceiling of exactly 1 needs no flag.
	WeightFloor float64
	WeightCeil  float64
	// WeightFloorSet marks WeightFloor as explicit, so WeightFloor: 0 is
	// honored as "no floor" instead of being rewritten to 0.25.
	WeightFloorSet bool
}

// NewScheduler builds a weight scheduler.
func NewScheduler(opt SchedulerOptions) *Scheduler {
	if opt.PrioritizationTicks <= 0 {
		opt.PrioritizationTicks = 10
	}
	if opt.EqualizationTicks <= 0 {
		opt.EqualizationTicks = 100
	}
	if opt.WeightFloor < 0 || (opt.WeightFloor == 0 && !opt.WeightFloorSet) {
		opt.WeightFloor = DefaultWeightFloor
	}
	if opt.WeightCeil <= 0 || opt.WeightCeil > 1 {
		opt.WeightCeil = DefaultWeightCeil
	}
	if opt.WeightCeil < opt.WeightFloor {
		opt.WeightFloor, opt.WeightCeil = DefaultWeightFloor, DefaultWeightCeil
	}
	winLen := opt.PrioritizationTicks / 3
	if winLen < 1 {
		winLen = 1
	}
	s := &Scheduler{
		mode:    opt.Mode,
		staticT: 0.5, // WeightsStatic's balanced default; Options.StaticWT overrides it
		tpTicks: opt.PrioritizationTicks,
		teTicks: opt.EqualizationTicks,
		floor:   opt.WeightFloor,
		ceil:    opt.WeightCeil,
		winLen:  winLen,
		lateT:   make([]float64, winLen),
		lateF:   make([]float64, winLen),
		wTP:     0.5,
		wFP:     0.5,
	}
	return s
}

// NewStaticScheduler builds a static-weight scheduler with an explicit
// throughput weight (0 is honored, enabling the Fairness SATORI variant).
func NewStaticScheduler(wT float64) *Scheduler {
	s := NewScheduler(SchedulerOptions{Mode: WeightsStatic})
	s.staticT = stats.Clamp(wT, 0, 1)
	return s
}

// Step consumes the tick's normalized throughput and fairness observation
// and returns the weights to use when constructing this tick's objective
// function.
func (s *Scheduler) Step(throughput, fairness float64) Weights {
	if s.mode == WeightsStatic {
		w := Weights{
			T: s.staticT, F: 1 - s.staticT,
			TE: s.staticT, FE: 1 - s.staticT,
			TP: s.staticT, FP: 1 - s.staticT,
		}
		s.advanceClock(w)
		return w
	}

	// Track the improvement windows for this period.
	if s.tp < s.winLen {
		s.earlyT += throughput
		s.earlyF += fairness
		s.earlyN++
	}
	s.lateT[s.lateIdx] = throughput
	s.lateF[s.lateIdx] = fairness
	s.lateIdx = (s.lateIdx + 1) % s.winLen
	if s.lateCnt < s.winLen {
		s.lateCnt++
	}

	// Prioritization component (Eq. 4): recomputed at each T_P
	// boundary from the % improvements over the period just ended.
	// The Eq. 4 constants are expressed through the configured bounds
	// (floor + span·Δ/(Δ_T+Δ_F)); with the paper's 0.25/0.75 defaults
	// this is exactly 1/4 + 1/2·Δ/(Δ_T+Δ_F).
	if s.tp >= s.tpTicks {
		dT := pctImprove(s.earlyT/float64(max1(s.earlyN)), meanOf(s.lateT, s.lateCnt))
		dF := pctImprove(s.earlyF/float64(max1(s.earlyN)), meanOf(s.lateF, s.lateCnt))
		span := s.ceil - s.floor
		if dT+dF <= 0 {
			s.wTP, s.wFP = 0.5, 0.5
		} else if s.mode == WeightsFavorStronger {
			// Ablation: reward the goal that improved more.
			s.wTP = s.floor + span*dT/(dT+dF)
			s.wFP = s.floor + span*dF/(dT+dF)
		} else {
			// Eq. 4: the goal that improved LESS gets the next
			// opportunity (prioritize the weaker goal).
			s.wTP = s.floor + span*dF/(dT+dF)
			s.wFP = s.floor + span*dT/(dT+dF)
		}
		s.tp = 0
		s.earlyT, s.earlyF, s.earlyN = 0, 0, 0
		s.lateCnt, s.lateIdx = 0, 0
	}

	// Equalization component (Eq. 3, normalized): 0.5 plus the average
	// weight deficit so far in the equalization period.
	wTE := 0.5
	if s.te > 0 {
		deficit := (0.5*float64(s.te) - s.sumWT) / float64(s.te)
		wTE = stats.Clamp(0.5+deficit, s.floor, s.ceil)
	}
	wFE := 1 - wTE

	// Blend (Eqs. 5/6): equalization dominates toward the period end.
	frac := float64(s.te) / float64(s.teTicks)
	wT := stats.Clamp(frac*wTE+(1-frac)*s.wTP, s.floor, s.ceil)
	if s.mode == WeightsSLOAware && s.sloViolating {
		// Violation override: pin throughput to the floor and hand the
		// ceiling to the recovery-scoring goal channel. The pinned
		// weight still feeds advanceClock's Σ W_T, so equalization owes
		// throughput the difference once the violation clears.
		wT = s.floor
	}
	w := Weights{
		T: wT, F: 1 - wT,
		TE: wTE, FE: wFE,
		TP: s.wTP, FP: s.wFP,
		EqFrac: frac,
	}
	s.advanceClock(w)
	return w
}

// SetSLOViolating feeds the control loop's hysteretic SLO-violation
// state; consulted only by WeightsSLOAware.
func (s *Scheduler) SetSLOViolating(v bool) { s.sloViolating = v }

// advanceClock accumulates the period counters after a tick's weights are
// fixed.
func (s *Scheduler) advanceClock(w Weights) {
	s.sumWT += w.T
	s.te++
	s.tp++
	if s.te >= s.teTicks {
		s.te = 0
		s.sumWT = 0
	}
}

// Mode returns the scheduler's weight mode.
func (s *Scheduler) Mode() WeightMode { return s.mode }

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

func meanOf(ring []float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	if n > len(ring) {
		n = len(ring)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += ring[i]
	}
	return sum / float64(n)
}

// pctImprove returns the non-negative % improvement from a to b.
func pctImprove(a, b float64) float64 {
	if a <= 0 {
		return 0
	}
	d := (b - a) / a * 100
	if d < 0 {
		return 0
	}
	return d
}
