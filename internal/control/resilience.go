package control

import (
	"time"

	"satori/internal/rdt"
	"satori/internal/resource"
)

// ResilienceOptions tunes how the loop survives platform flakiness. The
// policies only ever engage on failures marked retry-safe by the backend
// (rdt.IsTransient), so on a healthy platform every knob is inert and the
// loop's outputs are byte-identical to a build without them.
//
// Three layers, cheapest first:
//
//  1. Bounded retry with exponential backoff for transient failures of
//     the idempotent control operations — Apply and MeasureIsolated.
//     Sampling is never retried: the 100 ms interval is gone either way.
//  2. Hold-last-good-config graceful degradation: a lost or corrupt
//     observation (HeldSampleLost / HeldSampleCorrupt) skips the policy
//     and keeps the installed partition; a decision the platform still
//     rejects after retries (HeldApplyRejected) is counted and the
//     partition likewise held.
//     The loop never crashes on a transient fault — the decision is
//     deferred, not abandoned.
//  3. A consecutive-failure circuit breaker: when BreakerThreshold ticks
//     in a row fail to land a fresh decision, the loop falls back to the
//     equal-split safe configuration — fair by construction, the paper's
//     equalization starting point — and reports BreakerOpen until a
//     clean tick closes the circuit.
type ResilienceOptions struct {
	// MaxRetries bounds in-tick retries of a transient Apply or
	// MeasureIsolated failure (default 2; negative disables retrying).
	MaxRetries int
	// BackoffBase is the pre-retry delay, doubling per attempt (default
	// 1 ms). Delays are issued through Sleep.
	BackoffBase time.Duration
	// Sleep performs backoff delays. Default nil — no waiting — keeps
	// simulated time deterministic and wall-clock free; both binaries
	// install time.Sleep (internal/stack).
	Sleep func(time.Duration)
	// BreakerThreshold is how many consecutive failed ticks trip the
	// breaker to the equal-split safe configuration (default 10;
	// negative disables the breaker).
	BreakerThreshold int
}

// fill resolves defaulted knobs (negative values disable a layer).
func (o ResilienceOptions) fill() ResilienceOptions {
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 10
	} else if o.BreakerThreshold < 0 {
		o.BreakerThreshold = 0
	}
	return o
}

// Health is the loop's liveness summary — what a daemon's /healthz and
// /status endpoints report, and what a soak test reconciles against an
// injected fault script.
type Health struct {
	// Ticks is the number of completed intervals.
	Ticks int
	// ConsecutiveFailures counts the current run of ticks that failed to
	// land a fresh decision (lost/corrupt observation or rejected apply).
	ConsecutiveFailures int
	// BreakerOpen reports the circuit breaker is tripped: the loop is
	// holding the equal-split safe configuration until a clean tick.
	BreakerOpen bool
	// BreakerTrips counts how many times the breaker has opened.
	BreakerTrips int
	// TicksSinceGoodSample is the age, in ticks, of the last accepted
	// observation (0 = this tick).
	TicksSinceGoodSample int
	// TicksSinceGoodApply is the age, in ticks, of the last tick whose
	// decision the platform accepted.
	TicksSinceGoodApply int
	// Retries counts in-tick retry attempts of transient control-path
	// failures (Apply/MeasureIsolated).
	Retries int
	// BadSamples, SampleErrors, RejectedApplies and ResetErrs mirror the
	// Summary counters of the same names.
	BadSamples, SampleErrors, RejectedApplies, ResetErrs int
}

// Healthy reports whether the loop is operating normally: breaker
// closed and no active failure run.
func (h Health) Healthy() bool { return !h.BreakerOpen && h.ConsecutiveFailures == 0 }

// Health returns the loop's current liveness summary.
func (l *Loop) Health() Health {
	return Health{
		Ticks:                l.tick,
		ConsecutiveFailures:  l.consecFail,
		BreakerOpen:          l.breakerOpen,
		BreakerTrips:         l.breakerTrips,
		TicksSinceGoodSample: l.tick - l.lastGoodSample,
		TicksSinceGoodApply:  l.tick - l.lastGoodApply,
		Retries:              l.retries,
		BadSamples:           l.badSamples,
		SampleErrors:         l.sampleErrs,
		RejectedApplies:      l.rejected,
		ResetErrs:            l.resetErrs,
	}
}

// backoff sleeps before retry attempt k (1-based) when a Sleep hook is
// installed: BackoffBase, 2·BackoffBase, 4·BackoffBase, ...
func (l *Loop) backoff(attempt int) {
	if l.resil.Sleep != nil {
		l.resil.Sleep(l.resil.BackoffBase << (attempt - 1))
	}
}

// measureIsolatedRetry measures isolated baselines, re-attempting a
// transient failure with exponential backoff up to MaxRetries extra
// attempts.
func (l *Loop) measureIsolatedRetry() ([]float64, error) {
	iso, err := l.platform.MeasureIsolated()
	for attempt := 1; attempt <= l.resil.MaxRetries && rdt.IsTransient(err); attempt++ {
		l.backoff(attempt)
		l.retries++
		iso, err = l.platform.MeasureIsolated()
	}
	return iso, err
}

// noteGoodTick closes out a tick whose decision landed: the failure run
// ends and an open breaker closes.
func (l *Loop) noteGoodTick() {
	l.consecFail = 0
	l.breakerOpen = false
	l.safeInstalled = false
	l.lastGoodApply = l.tick
}

// noteFailedTick closes out a tick that failed to land a fresh decision
// (lost/corrupt observation or rejected apply). Crossing the breaker
// threshold — or remaining open with the safe config not yet installed —
// falls back to the equal-split safe configuration, reported as true.
func (l *Loop) noteFailedTick() bool {
	l.consecFail++
	if l.resil.BreakerThreshold <= 0 || l.consecFail < l.resil.BreakerThreshold {
		return false
	}
	if !l.breakerOpen {
		l.breakerOpen = true
		l.breakerTrips++
	}
	if l.safeInstalled || l.applyRetry(l.platform.Space().EqualSplit()) != nil {
		return false
	}
	cur, err := l.readCurrent()
	if err != nil {
		return false // the platform does not confirm the safe configuration
	}
	l.current = cur
	l.safeInstalled = true
	l.resetStability()
	return true
}

// applyRetry installs cfg, retrying a transient rejection (a busy resctrl
// write, an injected chaos fault) in-tick with backoff. It is closure-free
// so the fault-free tick allocates nothing.
func (l *Loop) applyRetry(cfg resource.Config) error {
	err := l.platform.Apply(cfg)
	for attempt := 1; attempt <= l.resil.MaxRetries && rdt.IsTransient(err); attempt++ {
		l.backoff(attempt)
		l.retries++
		err = l.platform.Apply(cfg)
	}
	return err
}
