package control

import (
	"satori/internal/rdt"
	"satori/internal/slo"
)

// SLOOptions tunes the loop's latency-critical tracking. The tracker
// itself is automatic: it exists exactly when the platform has the
// rdt.SLOProvider capability and at least one live job carries an SLO
// spec, and a loop without it is bit-identical to a pre-SLO loop. Its
// violation detector runs at the slo package's default hysteresis
// (DefaultOnsetTicks to flip into the violating state, the slower
// DefaultClearTicks to flip back, so it does not flap).
type SLOOptions struct {
	// GoalSwitch enables violation-driven goal switching: while the
	// hysteretic detector reports a persistent SLO violation, the
	// fairness channel is scored as SLO attainment (recovery first)
	// instead of the configured fairness metric, reverting when the
	// violation clears. This is the "sacrifice short-term fairness for
	// long-term SLO health" arbitration the SLO experiment measures.
	GoalSwitch bool
}

// SLOStatus is the latency view of one scored observation
// (Status.SLO): P50, P95 and P99 are the per-job request-latency
// quantiles in seconds (zero for batch slots, +Inf for a saturated LC
// job). The mean attainment and the hysteretic violation state the
// policy is shown too are Observation.SLOAttainment and SLOViolating.
type SLOStatus struct {
	P50, P95, P99 []float64
	// GoalSwitched reports the fairness channel is currently scoring
	// SLO attainment instead of the configured fairness metric
	// (SLOOptions.GoalSwitch).
	GoalSwitched bool
}

// sloTracker carries the loop's per-tick latency state: the live SLO
// specs, the hysteretic violation detector, and the most recent good
// tick's derived quantiles and attainment. It is rebuilt on membership
// churn (specs may have changed) and nil whenever no live job is
// latency-critical.
type sloTracker struct {
	specs      []*slo.Spec
	det        *slo.Detector
	goalSwitch bool

	// Last good tick's derived state; the latency block is freshly
	// allocated per observation because Status hands it to callers.
	last       *SLOStatus
	attainment float64 // mean AttainFrac over LC jobs (reported)
	recovery   float64 // min AttainFrac over LC jobs (scored while switched)
	switched   bool    // fairness channel currently scoring SLO recovery

	violTicks int // ticks spent in the hysteretic violating state
	violRun   int // current consecutive run of violating ticks
	switches  int // scoring-channel flips (on and off each count once)
}

// newSLOTracker asks the platform's SLO capability (nil when it has
// none) for latency-critical jobs; nil when the capability or the specs
// are absent, which keeps every loop hot path allocation-free for
// batch-only co-locations.
func newSLOTracker(p rdt.SLOProvider, opt SLOOptions) *sloTracker {
	if p == nil {
		return nil
	}
	specs := p.SLOSpecs()
	if !slo.HasLC(specs) {
		return nil
	}
	return &sloTracker{
		specs:      specs,
		det:        slo.NewDetector(slo.DefaultOnsetTicks, slo.DefaultClearTicks),
		goalSwitch: opt.GoalSwitch,
	}
}

// observe ingests one good tick's IPS observation: derive per-job
// latency quantiles and attainment, feed the violation verdict to the
// detector, and track the goal-switch state.
func (t *sloTracker) observe(ips []float64) {
	n := len(ips)
	q := make([]float64, 3*n)
	t.last = &SLOStatus{P50: q[:n:n], P95: q[n : 2*n : 2*n], P99: q[2*n:]}
	for j, s := range t.specs {
		if s == nil {
			continue
		}
		t.last.P50[j] = s.P50(ips[j])
		t.last.P95[j] = s.P95(ips[j])
		t.last.P99[j] = s.P99(ips[j])
	}
	t.attainment = slo.AttainmentScore(t.specs, ips)
	t.recovery = slo.RecoveryScore(t.specs, ips)
	t.det.Observe(slo.AnyViolating(t.specs, ips))
	if t.det.Violating() {
		t.violTicks++
		t.violRun++
	} else {
		t.violRun = 0
	}
	switched := t.goalSwitch && t.det.Violating()
	if switched != t.switched {
		t.switches++
	}
	t.switched = switched
	t.last.GoalSwitched = switched
}

// hold accounts n coarsely skipped intervals (SkipIdle): the hysteretic
// state is carried forward unchanged. This is sound because IdleHorizon
// refuses to promise ticks while the detector is mid-streak and the
// simulator refuses extrapolation near a violation boundary — a skip is
// only ever granted when the verdict is stable.
func (t *sloTracker) hold(n int) {
	if t.det.Violating() {
		t.violTicks += n
		t.violRun += n
	}
}

// fill copies the tracker's last-observation state into a Status.
func (t *sloTracker) fill(st *Status) {
	st.SLO = t.last
	st.SLOAttainment = t.attainment
	st.SLOViolating = t.det.Violating()
}

// SLOViolating reports the hysteretic violation state; always false for
// batch-only co-locations.
func (l *Loop) SLOViolating() bool {
	return l.slo != nil && l.slo.det.Violating()
}

// SLOViolationRun returns the length in ticks of the current violation
// run (0 while attaining) — the "sustained violation" measure behind
// the daemon's flag-gated unhealthy state.
func (l *Loop) SLOViolationRun() int {
	if l.slo == nil {
		return 0
	}
	return l.slo.violRun
}

// SLOSpecs returns the live per-slot SLO specs (nil entries are batch
// jobs), or nil when the loop tracks no latency-critical jobs.
func (l *Loop) SLOSpecs() []*slo.Spec {
	if l.slo == nil {
		return nil
	}
	return l.slo.specs
}
