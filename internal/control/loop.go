// Package control owns SATORI's per-tick control loop (Algorithm 1's
// outer loop) independent of any backend: sample per-job IPS, score the
// throughput and fairness goals, let the policy decide, apply the next
// partition, re-measure isolated baselines on the equalization schedule,
// and absorb job-membership churn. The loop is driven purely through the
// rdt.Platform interface, so the identical decision loop runs against
// the analytical simulator (rdt.SimPlatform), the Linux resctrl
// filesystem (rdt.ResctrlPlatform), or any future backend. The public
// satori.Session, the fleet's per-node stack, and the experiment harness
// are all thin layers over one Loop.
package control

import (
	"errors"
	"fmt"
	"math"

	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/slo"
	"satori/internal/stats"
)

// TickSeconds is the monitoring/decision interval (100 ms, 10 Hz).
const TickSeconds = sim.TickSeconds

// Options configures a Loop.
type Options struct {
	// Platform is the control+monitor backend (required).
	Platform rdt.Platform
	// Policy builds the partitioning policy against the platform's
	// *live* space (required). The loop re-invokes it after membership
	// churn re-dimensions the space, so factories must read
	// Platform.Space() at call time, not capture it.
	Policy func(rdt.Platform) (policy.Policy, error)
	// Throughput and Fairness select the objective formulas; the zero
	// values are the Default* sentinels resolving to the paper's
	// evaluation pairing (SumIPS + JainIndex, Sec. IV).
	Throughput metrics.ThroughputMetric
	Fairness   metrics.FairnessMetric
	// BaselineResetTicks is the isolated-baseline refresh period
	// (default 100 ticks = 10 s, the equalization period).
	BaselineResetTicks int
	// Sampling enables Pac-Sim-style sampled simulation on backends with
	// the rdt.FastSampler capability; zero-valued fields take defaults.
	Sampling SamplingOptions
	// Resilience tunes retry/backoff, graceful degradation and the
	// circuit breaker (see ResilienceOptions); zero-valued fields take
	// defaults, and none of them change behavior on a fault-free run.
	Resilience ResilienceOptions
	// SLO tunes latency-critical tracking and violation-driven goal
	// switching (see SLOOptions); it has no effect unless the platform
	// exposes jobs with SLO specs (rdt.SLOProvider).
	SLO SLOOptions
}

// SamplingOptions tunes phase-stability detection for sampled simulation:
// once every job's observed IPS has stayed within a relative ε-band for K
// consecutive ticks, the loop asks the backend to extrapolate intervals
// (rdt.FastSampler.SampleFast) instead of evaluating them in detail,
// until a phase change, configuration change, membership churn, or
// baseline refresh re-triggers detailed evaluation. On the analytical
// simulator the extrapolated observations are bit-identical to detailed
// ones (see sim.StepSampled), so enabling sampling changes no outputs —
// only the per-tick evaluation cost.
type SamplingOptions struct {
	// Enabled turns sampled simulation on. Backends without the
	// FastSampler capability silently run every tick detailed.
	Enabled bool
	// StableTicks is how many consecutive in-band ticks arm
	// extrapolation (default 5).
	StableTicks int
	// MaxRun caps consecutive extrapolated ticks before a detailed
	// re-validation is forced (default 20).
	MaxRun int
}

// stabilityEpsilon is the relative IPS band defining phase stability:
// a job whose IPS moved by more than ±10% since the previous tick is not
// phase-stable.
const stabilityEpsilon = 0.1

// fill resolves defaulted sampling knobs.
func (o SamplingOptions) fill() SamplingOptions {
	if o.StableTicks <= 0 {
		o.StableTicks = 5
	}
	if o.MaxRun <= 0 {
		o.MaxRun = 20
	}
	return o
}

// Status is one interval's outcome: the Observation the policy was shown
// (Tick and Time are stamped on every tick, IPS whenever a reading
// arrived, the scores only when it was scored) plus what only the loop
// knows.
type Status struct {
	policy.Observation
	// Config is the partition that will run during the next interval.
	Config resource.Config
	// SampledTick reports that this interval's observation was
	// extrapolated from phase-stable state (sampled simulation) instead
	// of evaluated in detail.
	SampledTick bool
	// Regrouped reports the policy committed a cluster-membership
	// migration during this tick's decision (clustered policies only).
	Regrouped bool
	// Held is why this tick landed no decision (zero: one landed). A held
	// tick accumulates no metrics unless it got as far as the policy
	// (HeldApplyRejected), keeps the installed partition in force, and
	// counts toward the circuit breaker; Summary counts each reason.
	Held HeldReason
	// Err is the transient failure behind Held: the lost reading
	// (HeldSampleLost) or the platform's rejection (HeldApplyRejected);
	// nil for every other reason. Non-transient failures abort Step.
	Err error
	// ResetErr is a transiently failed baseline re-measurement (nil when
	// none was due or it succeeded); a non-transient failure aborts Step
	// instead. After a failed periodic refresh the previous baselines stay
	// in force until the next boundary. After a membership change whose
	// re-measurement failed there are no baselines to fall back on: the
	// refresh is retried every tick and each tick is held
	// (HeldNoBaselines) until it lands.
	ResetErr error
	// SafeFallback reports the consecutive-failure circuit breaker
	// tripped on this interval and installed the equal-split safe
	// configuration (see ResilienceOptions).
	SafeFallback bool
	// SLO is the latency view of a scored observation; nil when the
	// co-location has no latency-critical jobs or nothing was scored.
	SLO *SLOStatus
}

// HeldReason says why a tick landed no decision.
type HeldReason uint8

const (
	// HeldSampleLost: a transient sampling failure — the 100 ms elapsed
	// but the reading was dropped (Status.Err). The policy is not
	// consulted.
	HeldSampleLost HeldReason = iota + 1
	// HeldSampleCorrupt: the platform returned a non-finite or negative
	// IPS; the observation is rejected before it reaches the metrics or
	// the policy.
	HeldSampleCorrupt
	// HeldNoBaselines: the reading is sound but a failed churn
	// re-measurement left nothing to score it against (Status.ResetErr).
	HeldNoBaselines
	// HeldApplyRejected: the platform refused the policy's decision
	// (Status.Err) and the live configuration stays.
	HeldApplyRejected
)

// String names the reason; the zero value — a decision landed — is "".
func (h HeldReason) String() string {
	return [...]string{"", "sample-lost", "bad-sample", "no-baselines", "apply-rejected"}[h]
}

// StaleDecisionError is Step's typed failure when the policy emits a
// configuration shaped for a job set that no longer exists — the policy
// and platform have desynced, which after churn means the rebuild
// contract was broken. It wraps the platform's *rdt.ConfigShapeError so
// callers (the fleet layer) can distinguish this fatal desync from the
// recoverable rejections reported as HeldApplyRejected. Only a
// shape rejection with the machine's resource-row count and a
// mismatched job dimension qualifies; a malformed configuration (wrong
// resource count, no allocation matrix) is an ordinary rejection.
type StaleDecisionError struct {
	// Tick is the interval whose decision was rejected.
	Tick int
	// Shape is the platform's typed shape rejection.
	Shape *rdt.ConfigShapeError
}

// Error implements error.
func (e *StaleDecisionError) Error() string {
	return fmt.Sprintf("control: tick %d: policy decision is stale-shaped for the live job set (policy not rebuilt after churn?): %v", e.Tick, e.Shape)
}

// Unwrap exposes the wrapped *rdt.ConfigShapeError to errors.As/Is.
func (e *StaleDecisionError) Unwrap() error { return e.Shape }

// ErrChurnUnsupported reports a membership-churn request against a
// backend without the rdt.Churner capability (e.g. a trace-driven
// resctrl deployment, whose job set is fixed at construction).
var ErrChurnUnsupported = errors.New("control: platform backend does not support job membership churn")

// Loop drives one co-location under a policy, one 100 ms interval at a
// time — the backend-agnostic embodiment of Algorithm 1's outer loop.
type Loop struct {
	platform   rdt.Platform
	pol        policy.Policy
	rebuild    func() (policy.Policy, error)
	tm         metrics.ThroughputMetric
	fm         metrics.FairnessMetric
	isolated   []float64
	needIso    bool      // isolated is a placeholder: re-measure before scoring
	speedups   []float64 // this tick's per-job speedups, for the scores (speedupBuf)
	current    resource.Config
	tick       int
	resetEvery int
	pendReset  bool
	rejected   int

	// The platform's optional capabilities, resolved once by New through
	// rdt.As (so they are found behind any decorator); nil when absent.
	// fast and batch are additionally nil unless sampling is enabled: fast
	// extrapolates single ticks inside Step, batch jumps whole promises in
	// SkipIdle, and IdleHorizon promises only what batch can honour.
	churn rdt.Churner
	fast  rdt.FastSampler
	batch rdt.BatchSampler
	lc    rdt.SLOProvider

	// Sampled-simulation state: prevIPS/stable track the phase-stability
	// ε-band; sampledRun counts consecutive extrapolated ticks toward
	// MaxRun.
	sampling     SamplingOptions
	prevIPS      []float64
	stable       int
	sampledRun   int
	sampledTicks int
	idleTicks    int
	badSamples   int

	// Resilience state: consecFail is the current run of ticks that
	// failed to land a decision; the breaker/safe-config fields back
	// Health() and the equal-split fallback (see resilience.go).
	resil                         ResilienceOptions
	consecFail                    int
	breakerOpen                   bool
	safeInstalled                 bool
	breakerTrips                  int
	retries                       int
	sampleErrs                    int
	resetErrs                     int
	lastGoodSample, lastGoodApply int

	accT, accF, accObj stats.Welford

	// lastT and lastF are the most recent good tick's normalized scores,
	// held by SkipIdle as the metric value of coarsely skipped intervals.
	lastT, lastF float64

	// SLO tracking: slo is non-nil only when the platform exposes
	// latency-critical jobs (rdt.SLOProvider), and is rebuilt on churn.
	sloOpt SLOOptions
	slo    *sloTracker

	// Regroup tracking: regroup is non-nil only when the policy exposes
	// cluster-membership migrations (the regrouper capability of
	// internal/cluster policies); lastRegroups is the policy's counter at
	// the previous tick, so deltas attribute migrations to ticks.
	regroup      regrouper
	lastRegroups int
	regroups     int
}

// regrouper is the optional policy capability for cluster-membership
// migrations (implemented by cluster.Partitioner and cluster.LFOC): a
// monotone count of committed migrations. The loop treats a migration
// tick like churn — a re-measurement boundary that disarms the sampled
// phase-stability window — and surfaces the count in its Summary.
type regrouper interface{ Regroups() int }

// New builds a loop: the policy is constructed on the platform's live
// space, the initial isolated baselines are measured (Algorithm 1
// line 3), and the first observation will carry BaselineReset.
func New(opt Options) (*Loop, error) {
	if opt.Platform == nil {
		return nil, fmt.Errorf("control: Options.Platform is required")
	}
	if opt.Policy == nil {
		return nil, fmt.Errorf("control: Options.Policy is required")
	}
	rebuild := func() (policy.Policy, error) { return opt.Policy(opt.Platform) }
	pol, err := rebuild()
	if err != nil {
		return nil, err
	}
	resetEvery := opt.BaselineResetTicks
	if resetEvery <= 0 {
		resetEvery = 100
	}
	l := &Loop{
		platform:   opt.Platform,
		pol:        pol,
		rebuild:    rebuild,
		tm:         opt.Throughput.Resolve(),
		fm:         opt.Fairness.Resolve(),
		current:    opt.Platform.Current(),
		resetEvery: resetEvery,
		pendReset:  true,
		sampling:   opt.Sampling.fill(),
		resil:      opt.Resilience.fill(),
		sloOpt:     opt.SLO,
	}
	l.churn, _ = rdt.As[rdt.Churner](opt.Platform)
	l.lc, _ = rdt.As[rdt.SLOProvider](opt.Platform)
	if opt.Sampling.Enabled {
		l.fast, _ = rdt.As[rdt.FastSampler](opt.Platform)
		l.batch, _ = rdt.As[rdt.BatchSampler](opt.Platform)
	}
	l.slo = newSLOTracker(l.lc, l.sloOpt)
	l.captureRegrouper()
	iso, err := l.measureIsolatedRetry()
	if err != nil {
		return nil, err
	}
	l.isolated = iso
	return l, nil
}

// Platform returns the backend the loop drives.
func (l *Loop) Platform() rdt.Platform { return l.platform }

// Policy returns the active policy (rebuilt after membership churn).
func (l *Loop) Policy() policy.Policy { return l.pol }

// Isolated returns the isolated baselines currently in force.
func (l *Loop) Isolated() []float64 { return l.isolated }

// Ticks returns the number of completed intervals.
func (l *Loop) Ticks() int { return l.tick }

// Objectives returns the resolved metric choices.
func (l *Loop) Objectives() (metrics.ThroughputMetric, metrics.FairnessMetric) {
	return l.tm, l.fm
}

// SetObjectives swaps the goal formulas mid-run — the daemon's
// reconfigure-goal path. The Default* sentinels resolve as in Options.
// The running aggregates keep accumulating across the switch; the next
// interval is scored under the new pair.
func (l *Loop) SetObjectives(tm metrics.ThroughputMetric, fm metrics.FairnessMetric) {
	l.tm, l.fm = tm.Resolve(), fm.Resolve()
}

// Step advances one 100 ms interval through the tick's stages:
//
//	refreshIfDue  re-measure isolated baselines at an equalization
//	              boundary (skipped when churn already refreshed them)
//	observe       sample IPS, validate it, score both goals
//	decide        let the policy decide and apply the next partition
//	account       close the tick as landed (noteGoodTick) or held
//
// The loop owns the failure taxonomy: every transient fault is absorbed
// and surfaced in the status (Held with its Err, ResetErr), every
// non-transient Sample or MeasureIsolated failure aborts Step with the
// error, and a stale-shaped decision aborts it with a
// *StaleDecisionError. Callers never classify a Status field.
func (l *Loop) Step() (st Status, err error) {
	resetErr := l.refreshIfDue()
	if resetErr != nil && !rdt.IsTransient(resetErr) {
		return st, resetErr
	}
	ok, err := l.observe(&st)
	st.ResetErr = resetErr
	if err != nil || !ok {
		return st, err
	}
	err = l.decide(&st)
	return st, err
}

// refreshIfDue is Algorithm 1 line 13: re-record isolated baselines every
// equalization period. The refresh is scheduled at the start of the
// interval after the boundary tick — the same position in the platform's
// sampling sequence as refreshing at the previous tick's end — so a
// membership change between ticks (which re-measures on its own) makes
// the periodic refresh redundant and it is skipped. Baselines a failed
// churn re-measurement left missing are due every tick. A failed refresh
// leaves the loop's baselines as they were and is returned; transient
// failures are counted.
func (l *Loop) refreshIfDue() error {
	periodic := l.tick > 0 && l.tick%l.resetEvery == 0 && !l.pendReset
	if !periodic && !l.needIso {
		return nil
	}
	iso, err := l.measureIsolatedRetry()
	if err != nil {
		if rdt.IsTransient(err) {
			l.resetErrs++
		}
		return err
	}
	return l.commitBaselines(iso, nil)
}

// commitBaselines installs a baseline measurement and makes it a
// re-measurement boundary: the next accepted observation carries
// BaselineReset and the stability window re-arms through detailed ticks.
// A failed measurement (membership-change callers only — a failed
// refresh of an unchanged job set keeps its old baselines instead)
// installs a placeholder of the live length marked missing: refreshIfDue
// retries it every tick and observe holds every tick until it lands.
func (l *Loop) commitBaselines(iso []float64, err error) error {
	if err != nil {
		iso = make([]float64, l.NumJobs())
	}
	l.isolated, l.needIso = iso, err != nil
	l.pendReset = true
	l.resetStability()
	return err
}

// observe is the only code that advances the clock by an observed
// interval: sample per-job IPS, validate it, score both goals and fold
// them into the running aggregates, writing the tick's status to the
// zero-valued st. ok reports a usable observation; otherwise st is
// already closed as a held tick. A non-transient sampling failure
// returns the error with the clock and st untouched.
//
// Sampled simulation: once the phase-stability window is armed the
// backend is asked to extrapolate the interval instead of evaluating it
// in detail, and MaxRun bounds how long extrapolation may run before a
// detailed re-validation. The backend refuses (with no side effects)
// whenever extrapolation could diverge — imminent phase boundary,
// configuration change, churn — and the detailed sample runs.
func (l *Loop) observe(st *Status) (ok bool, err error) {
	var ips []float64
	sampled := false
	if l.fast != nil && l.stable >= l.sampling.StableTicks && l.sampledRun < l.sampling.MaxRun {
		if ips, sampled = l.fast.SampleFast(); sampled {
			l.sampledRun++
			l.sampledTicks++
		}
	}
	if !sampled {
		ips, err = l.platform.Sample()
		if err != nil && !rdt.IsTransient(err) {
			return false, err
		}
		l.sampledRun = 0
	}
	l.tick++
	if err != nil {
		// A transient dropout: the interval elapsed but the reading was
		// lost. Sampling is never retried (the 100 ms is gone) — the loop
		// degrades gracefully instead: hold the last good configuration,
		// skip the policy, count the miss.
		l.sampleErrs++
		l.resetStability()
		l.held(st, HeldSampleLost, err)
		return false, nil
	}
	// Reject corrupt observations before they reach the metrics or the
	// policy: a non-finite or negative IPS (a wedged hardware counter, a
	// torn resctrl read) would silently poison the Welford aggregates and
	// the proxy model. l.pendReset is left pending so the policy still
	// sees the BaselineReset flag on the next accepted observation.
	st.IPS, st.SampledTick = ips, sampled
	for _, v := range ips {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			l.badSamples++
			l.resetStability()
			l.held(st, HeldSampleCorrupt, nil)
			return false, nil
		}
	}
	if l.needIso {
		// No baselines for the live job set (see commitBaselines): the
		// reading is sound but there is nothing to score it against.
		l.held(st, HeldNoBaselines, nil)
		return false, nil
	}
	l.lastGoodSample = l.tick
	l.updateStability(ips)
	if l.slo != nil {
		l.slo.observe(ips)
	}
	st.Observation = policy.Observation{
		Tick: l.tick, Time: float64(l.tick) * TickSeconds,
		IPS: ips, Isolated: l.isolated, Speedups: metrics.Speedups(ips, l.isolated),
		Throughput: l.scoreThroughput(ips), Fairness: l.scoreFairness(ips),
	}
	st.Config = l.current
	if l.slo != nil {
		l.slo.fill(st)
	}
	l.accT.Add(st.Throughput)
	l.accF.Add(st.Fairness)
	l.accObj.Add(0.5*st.Throughput + 0.5*st.Fairness)
	l.lastT, l.lastF = st.Throughput, st.Fairness
	return true, nil
}

// held closes a tick that landed no fresh decision: name the reason and
// the transient failure behind it, stamp the clock, the baselines in
// force and the partition held, and count the tick toward the circuit
// breaker.
func (l *Loop) held(st *Status, why HeldReason, err error) {
	st.Held, st.Err = why, err
	st.Tick, st.Time = l.tick, float64(l.tick)*TickSeconds
	st.Isolated = l.isolated
	st.SafeFallback = l.noteFailedTick()
	st.Config = l.current
}

// decide consults the policy on a scored observation and applies its
// decision, closing the tick as landed or held.
func (l *Loop) decide(st *Status) error {
	st.BaselineReset, l.pendReset = l.pendReset, false
	next := l.pol.Decide(st.Observation, l.current)
	if l.regroup != nil {
		if n := l.regroup.Regroups(); n > l.lastRegroups {
			// The policy committed a cluster-membership migration inside
			// this Decide: the control-group layout just changed under the
			// running jobs, so treat the tick as a churn-like boundary —
			// disarm extrapolation until the ε-band re-fills.
			l.regroups += n - l.lastRegroups
			l.lastRegroups = n
			l.resetStability()
			st.Regrouped = true
		}
	}
	if err := l.applyRetry(next); err != nil {
		// A shape rejection is fatal only when it is genuinely stale:
		// churn changes the job dimension but never the resource rows,
		// so a config with the machine's resource count and the wrong
		// job count came from before a membership change the policy
		// never saw. Anything else (e.g. a zero-value config with no
		// allocation matrix) is malformed, not stale — a recoverable
		// rejection like any other invalid decision.
		var shape *rdt.ConfigShapeError
		if errors.As(err, &shape) && shape.ConfigResources == shape.SpaceResources {
			return &StaleDecisionError{Tick: l.tick, Shape: shape}
		}
		l.rejected++
		l.held(st, HeldApplyRejected, err)
		return nil
	}
	if !l.current.Equal(next) {
		// l.current tracks the platform's installed configuration (both
		// are updated only here and in the churn paths), so an unchanged
		// decision needs no re-clone — the steady-state fast path.
		l.current = l.platform.Current()
		st.Config = l.current
	}
	l.noteGoodTick()
	return nil
}

// scoreThroughput maps this tick's observation to the normalized
// throughput score. With latency-critical jobs present, the P99Latency
// metric scores tail-latency headroom from the SLO tracker; every other
// configuration is the pre-SLO computation unchanged.
func (l *Loop) scoreThroughput(ips []float64) float64 {
	if l.slo != nil && l.tm == metrics.P99Latency {
		return slo.HeadroomScore(l.slo.specs, ips)
	}
	return metrics.NormalizedThroughputInto(l.tm, ips, l.isolated, l.speedupBuf(len(ips)))
}

// scoreFairness maps this tick's observation to the normalized fairness
// score. The SLO tracker substitutes mean attainment when the
// SLOAttainment metric is configured. While a violation persists under
// GoalSwitch it instead scores the WORST service's attainment
// (slo.RecoveryScore) — one healthy service must not mask a starving
// one, or the optimizer loses its gradient before every SLO is met.
// The tracker must have observed this tick already.
func (l *Loop) scoreFairness(ips []float64) float64 {
	if l.slo != nil && l.slo.switched {
		return l.slo.recovery
	}
	if l.slo != nil && l.fm == metrics.SLOAttainment {
		return l.slo.attainment
	}
	return metrics.NormalizedFairnessInto(l.fm, ips, l.isolated, l.speedupBuf(len(ips)))
}

// speedupBuf returns n floats of the loop's speedup buffer, so that a
// score reduced from the per-job speedups allocates nothing per tick.
func (l *Loop) speedupBuf(n int) []float64 {
	if cap(l.speedups) < n {
		l.speedups = make([]float64, n)
	}
	return l.speedups[:n]
}

// updateStability advances the phase-stability window: stable counts
// consecutive ticks in which every job's IPS stayed within the relative
// ε-band of the previous tick's observation.
func (l *Loop) updateStability(ips []float64) {
	if l.fast == nil {
		return
	}
	if len(l.prevIPS) != len(ips) {
		l.prevIPS = append(l.prevIPS[:0], ips...)
		l.stable = 0
		return
	}
	within := true
	for j, v := range ips {
		ref := math.Abs(l.prevIPS[j])
		if ref < 1e-12 {
			ref = 1e-12
		}
		if math.Abs(v-l.prevIPS[j])/ref > stabilityEpsilon {
			within = false
			break
		}
	}
	if within {
		l.stable++
	} else {
		l.stable = 0
	}
	copy(l.prevIPS, ips)
}

// resetStability disarms extrapolation until the ε-band re-fills — called
// on baseline refreshes, membership churn, and rejected observations.
func (l *Loop) resetStability() {
	l.stable = 0
	l.sampledRun = 0
	l.prevIPS = l.prevIPS[:0]
}

// IdleHorizon returns how many upcoming intervals this loop could advance
// without consulting the policy and without a detailed evaluation — the
// event-driven fleet's skip budget for a node with nothing going on. It
// is 0 unless the backend can jump a run of intervals (rdt.BatchSampler),
// the phase-stability window is armed, no baseline refresh is due or
// pending delivery to the policy, and the circuit breaker is closed. The
// promise is bounded by the backend's own phase-boundary lookahead
// (FastSampler.FastHorizon), by the remaining MaxRun extrapolation
// budget, and by the distance to the next equalization boundary — so a
// caller advancing at most IdleHorizon ticks via SkipIdle never skips
// past a baseline refresh or a needed detailed re-validation.
func (l *Loop) IdleHorizon() int {
	if l.batch == nil || l.breakerOpen || l.pendReset {
		return 0
	}
	if l.stable < l.sampling.StableTicks {
		return 0
	}
	// An SLO detector mid-streak is advancing toward an onset or a
	// clear: skipping now could jump the loop straight over the
	// transition (and the goal switch it triggers), so no promise is
	// made until the streak resolves — the violation analogue of a
	// phase edge.
	if l.slo != nil && l.slo.det.MidStreak() {
		return 0
	}
	// A periodic refresh is due right now: the next Step must run it.
	if l.tick > 0 && l.tick%l.resetEvery == 0 {
		return 0
	}
	h := l.batch.FastHorizon()
	if m := l.sampling.MaxRun - l.sampledRun; m < h {
		h = m
	}
	if m := l.resetEvery - l.tick%l.resetEvery; m < h {
		h = m
	}
	if h < 0 {
		return 0
	}
	return h
}

// ErrSkipRefused is SkipIdle's typed refusal: the backend has no batch
// capability (IdleHorizon is then always 0) or declined the jump, so
// nothing was advanced. A caller inside an IdleHorizon promise never sees
// it; one that does has lost count of the loop's clock, which the fleet
// treats like any other fatal node error.
var ErrSkipRefused = errors.New("control: idle skip refused by the platform")

// SkipIdle advances the loop clock n ticks in one coarse batched jump —
// the event-driven fleet's settlement of a node's deferred ticks, and
// with Step one of the two ways time passes. The platform extrapolates
// all n intervals in a single O(jobs) operation (no per-interval
// samples), and the loop holds the last good tick's normalized scores as
// the metric value of every skipped interval, so run aggregates keep
// tick-weighted semantics; the installed configuration is held and the
// policy is never consulted. The jump is deterministic but NOT
// bit-identical to n lockstep Steps (the per-interval noise terms are not
// realized). Callers must stay within a promise returned by IdleHorizon;
// a jump the platform cannot make is refused with ErrSkipRefused and
// leaves the loop untouched. n <= 0 is a no-op.
func (l *Loop) SkipIdle(n int) error {
	if n <= 0 {
		return nil
	}
	if l.batch == nil || !l.batch.SkipFast(n) {
		return fmt.Errorf("tick %d: skip of %d ticks: %w", l.tick, n, ErrSkipRefused)
	}
	l.tick += n
	l.idleTicks += n
	l.sampledTicks += n
	l.sampledRun += n
	l.lastGoodSample = l.tick
	if l.slo != nil {
		l.slo.hold(n)
	}
	obj := 0.5*l.lastT + 0.5*l.lastF
	for i := 0; i < n; i++ {
		l.accT.Add(l.lastT)
		l.accF.Add(l.lastF)
		l.accObj.Add(obj)
	}
	l.noteGoodTick()
	return nil
}

// Run advances n intervals and returns the last status.
func (l *Loop) Run(n int) (Status, error) {
	var last Status
	var err error
	for i := 0; i < n; i++ {
		last, err = l.Step()
		if err != nil {
			return last, err
		}
	}
	return last, nil
}

// rebuildAfterChurn is the loop-side commit of a membership change the
// platform has already made: rebuild the policy on the live space, adopt
// the re-split partition, rebuild the SLO tracker against the new job set
// (the detector restarts attaining, like a freshly built loop) and
// re-record baselines. Once the policy rebuilt, everything commits even
// when the measurement fails — the loop must describe the job set the
// platform runs, or the next observation would be scored against
// baselines of another length; commitBaselines marks them missing and
// the error is returned for the caller to count.
func (l *Loop) rebuildAfterChurn() error {
	pol, err := l.rebuild()
	if err != nil {
		return err
	}
	l.pol = pol
	l.captureRegrouper() // the rebuilt policy starts its migration counter fresh
	l.current = l.platform.Current()
	l.slo = newSLOTracker(l.lc, l.sloOpt)
	return l.commitBaselines(l.measureIsolatedRetry())
}

// captureRegrouper re-detects the policy's optional migration counter —
// called whenever l.pol is (re)built, so Step's delta tracking restarts
// from the new policy's baseline.
func (l *Loop) captureRegrouper() {
	l.regroup = nil
	l.lastRegroups = 0
	if r, ok := l.pol.(regrouper); ok {
		l.regroup = r
		l.lastRegroups = r.Regroups()
	}
}

// NumJobs returns the number of co-located jobs (falling back to the
// space's job count on backends without the churn capability).
func (l *Loop) NumJobs() int {
	if l.churn != nil {
		return l.churn.NumJobs()
	}
	return l.platform.Space().Jobs
}

// ReplaceJob swaps the workload running in slot j for a new one — a job
// departure plus a new arrival in the same slot (Algorithm 1 line 12).
// Isolated baselines are re-measured immediately and the policy sees a
// BaselineReset on its next observation; SATORI requires no other
// re-initialization (Sec. III-C).
func (l *Loop) ReplaceJob(j int, p *sim.Profile) error {
	if l.churn == nil {
		return ErrChurnUnsupported
	}
	if err := l.churn.ReplaceJob(j, p); err != nil {
		return err
	}
	// The slot's workload (and so possibly its SLO spec) changed:
	// rebuild the tracker like any other membership change.
	l.slo = newSLOTracker(l.lc, l.sloOpt)
	return l.commitBaselines(l.measureIsolatedRetry())
}

// AddJob admits a new job into the co-location (a fleet-layer arrival).
// The configuration space changes dimension, so unlike ReplaceJob this
// is a full membership change: the partition is re-split, baselines are
// re-measured, and the policy is rebuilt on the new space — the engine
// re-initialization a job-count change requires (its proxy-model inputs
// are per-(resource, job) coordinates).
func (l *Loop) AddJob(p *sim.Profile) error {
	if l.churn == nil {
		return ErrChurnUnsupported
	}
	if err := l.churn.AddJob(p); err != nil {
		return err
	}
	return l.rebuildAfterChurn()
}

// RemoveJob evicts the job in slot j (a departure); jobs above j shift
// down one slot. Like AddJob this re-splits the partition, re-measures
// baselines and rebuilds the policy on the shrunken space. The last job
// cannot be removed.
func (l *Loop) RemoveJob(j int) error {
	if l.churn == nil {
		return ErrChurnUnsupported
	}
	if err := l.churn.RemoveJob(j); err != nil {
		return err
	}
	return l.rebuildAfterChurn()
}

// Summary aggregates the loop so far.
type Summary struct {
	// Ticks is the number of completed intervals.
	Ticks int
	// MeanThroughput and MeanFairness are run averages of the
	// normalized scores.
	MeanThroughput, MeanFairness float64
	// MeanObjective is the run average of 0.5·T + 0.5·F.
	MeanObjective float64
	// StdThroughput and StdFairness are the tick-to-tick standard
	// deviations of the normalized scores.
	StdThroughput, StdFairness float64
	// RejectedApplies counts decisions the platform refused (invalid or
	// non-compilable configurations). Without it, a policy emitting
	// garbage is indistinguishable from one deliberately holding the
	// current configuration.
	RejectedApplies int
	// SampledTicks counts intervals observed by extrapolation instead of
	// detailed evaluation (sampled simulation).
	SampledTicks int
	// IdleTicks counts intervals advanced through SkipIdle — batched,
	// policy-free catch-up ticks from the event-driven fleet path.
	IdleTicks int
	// BadSamples counts observations rejected for non-finite or negative
	// IPS (HeldSampleCorrupt ticks).
	BadSamples int
	// SampleErrors counts intervals whose observation was lost to a
	// transient sampling failure (HeldSampleLost ticks).
	SampleErrors int
	// ResetErrs counts periodic baseline refreshes that failed after
	// retries (Status.ResetErr ticks); the stale baselines stayed in
	// force until the next boundary.
	ResetErrs int
	// Retries counts in-tick retry attempts of transient
	// Apply/MeasureIsolated failures.
	Retries int
	// BreakerTrips counts circuit-breaker openings — equal-split safe
	// fallbacks after a run of consecutive failed ticks.
	BreakerTrips int
	// SLOViolatedTicks counts intervals spent in the hysteretic SLO
	// violating state (0 for batch-only co-locations).
	SLOViolatedTicks int
	// SLOOnsets counts violation onsets the detector confirmed.
	SLOOnsets int
	// GoalSwitches counts fairness-channel flips (switching to SLO
	// attainment on onset and back on clear each count once).
	GoalSwitches int
	// Regroups counts cluster-membership migrations the policy committed
	// (0 for non-clustered policies).
	Regroups int
}

// Summary returns the running aggregate.
func (l *Loop) Summary() Summary {
	s := Summary{
		Ticks:           l.tick,
		MeanThroughput:  l.accT.Mean(),
		MeanFairness:    l.accF.Mean(),
		MeanObjective:   l.accObj.Mean(),
		StdThroughput:   l.accT.StdDev(),
		StdFairness:     l.accF.StdDev(),
		RejectedApplies: l.rejected,
		SampledTicks:    l.sampledTicks,
		IdleTicks:       l.idleTicks,
		BadSamples:      l.badSamples,
		SampleErrors:    l.sampleErrs,
		ResetErrs:       l.resetErrs,
		Retries:         l.retries,
		BreakerTrips:    l.breakerTrips,
		Regroups:        l.regroups,
	}
	if l.slo != nil {
		s.SLOViolatedTicks = l.slo.violTicks
		s.SLOOnsets = l.slo.det.Onsets()
		s.GoalSwitches = l.slo.switches
	}
	return s
}

// String renders the summary. Fault counters appear only when nonzero,
// so detailed noise-free runs render byte-identically to before.
func (s Summary) String() string {
	out := fmt.Sprintf("ticks=%d throughput=%.3f fairness=%.3f objective=%.3f",
		s.Ticks, s.MeanThroughput, s.MeanFairness, s.MeanObjective)
	if s.SampledTicks > 0 {
		out += fmt.Sprintf(" sampled=%d", s.SampledTicks)
	}
	if s.IdleTicks > 0 {
		out += fmt.Sprintf(" idle=%d", s.IdleTicks)
	}
	if s.BadSamples > 0 {
		out += fmt.Sprintf(" bad-samples=%d", s.BadSamples)
	}
	if s.SampleErrors > 0 {
		out += fmt.Sprintf(" sample-errors=%d", s.SampleErrors)
	}
	if s.ResetErrs > 0 {
		out += fmt.Sprintf(" reset-errors=%d", s.ResetErrs)
	}
	if s.Retries > 0 {
		out += fmt.Sprintf(" retries=%d", s.Retries)
	}
	if s.BreakerTrips > 0 {
		out += fmt.Sprintf(" breaker-trips=%d", s.BreakerTrips)
	}
	if s.SLOViolatedTicks > 0 || s.SLOOnsets > 0 {
		out += fmt.Sprintf(" slo-violated=%d slo-onsets=%d", s.SLOViolatedTicks, s.SLOOnsets)
	}
	if s.GoalSwitches > 0 {
		out += fmt.Sprintf(" goal-switches=%d", s.GoalSwitches)
	}
	if s.Regroups > 0 {
		out += fmt.Sprintf(" regroups=%d", s.Regroups)
	}
	return out
}
