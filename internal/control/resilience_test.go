package control

import (
	"testing"
	"time"

	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// newFaultLoop builds a loop over a sim platform wrapped in a fault
// injector running the given script.
func newFaultLoop(t *testing.T, script rdt.FaultScript, opt Options) (*Loop, *rdt.FaultInjector) {
	t.Helper()
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	script.Sleep = func(time.Duration) {} // no wall-clock in tests
	fi, err := rdt.NewFaultInjector(inner, script)
	if err != nil {
		t.Fatal(err)
	}
	opt.Platform = fi
	if opt.Policy == nil {
		opt.Policy = func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil }
	}
	loop, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return loop, fi
}

// With retries disabled, every scripted fault maps 1:1 onto a loop
// counter: the Summary/Health tallies must exactly reconcile against the
// injector's ground truth.
func TestLoopFaultCountersMatchScriptExactly(t *testing.T) {
	script := rdt.FaultScript{
		Faults: []rdt.Fault{
			{Op: rdt.OpSample, Kind: rdt.FaultNaN, Call: 10},
			{Op: rdt.OpSample, Kind: rdt.FaultNegative, Call: 20},
			{Op: rdt.OpSample, Kind: rdt.FaultError, Call: 30, Repeat: 2},
			{Op: rdt.OpMeasureIsolated, Kind: rdt.FaultError, Call: 2},
			{Op: rdt.OpApply, Kind: rdt.FaultError, Call: 5, Repeat: 3},
		},
	}
	loop, fi := newFaultLoop(t, script, Options{
		BaselineResetTicks: 50,
		Resilience:         ResilienceOptions{MaxRetries: -1, BreakerThreshold: 10},
	})
	degraded, bad, rejected, resets := 0, 0, 0, 0
	for tick := 1; tick <= 120; tick++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatalf("tick %d: loop crashed: %v", tick, err)
		}
		switch st.Held {
		case HeldSampleLost:
			degraded++
			if st.Err == nil || len(st.IPS) != 0 {
				t.Errorf("tick %d: degraded status inconsistent: %+v", tick, st)
			}
		case HeldSampleCorrupt:
			bad++
		case HeldApplyRejected:
			rejected++
		}
		if st.ResetErr != nil {
			resets++
			if !rdt.IsTransient(st.ResetErr) {
				t.Errorf("tick %d: injected reset error not transient: %v", tick, st.ResetErr)
			}
		}
	}
	if degraded != 2 || bad != 2 || rejected != 3 || resets != 1 {
		t.Errorf("per-tick counts = degraded %d bad %d rejected %d resets %d, want 2 2 3 1",
			degraded, bad, rejected, resets)
	}
	sum := loop.Summary()
	counts := fi.Counts()
	if sum.BadSamples != counts.SampleNaNs+counts.SampleNegatives {
		t.Errorf("BadSamples = %d, injector corrupted %d", sum.BadSamples, counts.SampleNaNs+counts.SampleNegatives)
	}
	if sum.SampleErrors != counts.SampleErrors {
		t.Errorf("SampleErrors = %d, injector dropped %d", sum.SampleErrors, counts.SampleErrors)
	}
	if sum.RejectedApplies != counts.ApplyErrors {
		t.Errorf("RejectedApplies = %d, injector rejected %d", sum.RejectedApplies, counts.ApplyErrors)
	}
	if sum.ResetErrs != counts.MeasureErrors {
		t.Errorf("ResetErrs = %d, injector failed %d measurements", sum.ResetErrs, counts.MeasureErrors)
	}
	if sum.Retries != 0 || sum.BreakerTrips != 0 {
		t.Errorf("retries %d trips %d, want 0 0 (retries disabled, faults scattered)", sum.Retries, sum.BreakerTrips)
	}
	h := loop.Health()
	if h.BadSamples != sum.BadSamples || h.SampleErrors != sum.SampleErrors ||
		h.RejectedApplies != sum.RejectedApplies || h.ResetErrs != sum.ResetErrs {
		t.Errorf("Health counters %+v disagree with Summary %+v", h, sum)
	}
	if !h.Healthy() || h.ConsecutiveFailures != 0 || h.TicksSinceGoodSample != 0 || h.TicksSinceGoodApply != 0 {
		t.Errorf("loop should have fully recovered by tick 120: %+v", h)
	}
}

// Bounded retry absorbs short transient bursts: a 1-call Apply fault and
// a 2-call MeasureIsolated burst vanish behind retries, costing only the
// Retries counter — no rejected applies, no reset errors.
func TestLoopRetryAbsorbsTransientBursts(t *testing.T) {
	script := rdt.FaultScript{
		Faults: []rdt.Fault{
			{Op: rdt.OpApply, Kind: rdt.FaultError, Call: 5},
			{Op: rdt.OpMeasureIsolated, Kind: rdt.FaultError, Call: 2, Repeat: 2},
		},
	}
	var slept []time.Duration
	loop, _ := newFaultLoop(t, script, Options{
		BaselineResetTicks: 50,
		Resilience: ResilienceOptions{
			MaxRetries:  2,
			BackoffBase: time.Millisecond,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		},
	})
	for tick := 1; tick <= 60; tick++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if st.Held != 0 || st.ResetErr != nil {
			t.Errorf("tick %d: burst leaked through retries: %+v", tick, st)
		}
	}
	sum := loop.Summary()
	if sum.Retries != 3 || sum.RejectedApplies != 0 || sum.ResetErrs != 0 {
		t.Errorf("retries %d rejected %d resets %d, want 3 0 0", sum.Retries, sum.RejectedApplies, sum.ResetErrs)
	}
	// Backoff doubles per attempt: apply retry waits 1 ms; the measure
	// burst waits 1 ms then 2 ms.
	want := []time.Duration{time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("backoff sleeps = %v, want %v", slept, want)
	}
	// The apply fault fires mid-run (tick 5), after the construction-time
	// measure burst (calls 2-3).
	if slept[0] != want[0] || slept[1] != want[1] || slept[2] != want[2] {
		t.Errorf("backoff sleeps = %v, want %v", slept, want)
	}
}

// movePolicy always decides a fixed non-equal-split configuration, so a
// breaker fallback to the equal split is observable in Status.Config.
type movePolicy struct{ cfg resource.Config }

func (movePolicy) Name() string { return "move" }

func (p movePolicy) Decide(policy.Observation, resource.Config) resource.Config { return p.cfg }

// A sustained failure run must trip the circuit breaker onto the
// equal-split safe configuration, stay open while the failures continue,
// and close on the first clean tick — with the policy's configuration
// reinstated by the next decision.
func TestLoopBreakerFallsBackToEqualSplit(t *testing.T) {
	script := rdt.FaultScript{
		Faults: []rdt.Fault{{Op: rdt.OpSample, Kind: rdt.FaultError, Call: 20, Repeat: 15}},
	}
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	script.Sleep = func(time.Duration) {}
	platform, err := rdt.NewFaultInjector(inner, script)
	if err != nil {
		t.Fatal(err)
	}
	equal := platform.Space().EqualSplit()
	moved := equal.Clone()
	moved.Alloc[0][0]++
	moved.Alloc[0][1]--
	if err := platform.Space().Validate(moved); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	loop, err := New(Options{
		Platform:   platform,
		Policy:     func(rdt.Platform) (policy.Policy, error) { return movePolicy{cfg: moved}, nil },
		Resilience: ResilienceOptions{BreakerThreshold: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 45; tick++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		h := loop.Health()
		switch {
		case tick < 20:
			if !st.Config.Equal(moved) {
				t.Errorf("tick %d: policy config not installed", tick)
			}
			if h.BreakerOpen {
				t.Errorf("tick %d: breaker open before any fault", tick)
			}
		case tick < 29: // failure run building up
			if !st.Config.Equal(moved) {
				t.Errorf("tick %d: config changed before breaker threshold", tick)
			}
			if h.ConsecutiveFailures != tick-19 {
				t.Errorf("tick %d: consecutive failures = %d, want %d", tick, h.ConsecutiveFailures, tick-19)
			}
		case tick == 29: // 10th consecutive failure: trip
			if !st.SafeFallback {
				t.Error("tick 29: SafeFallback not flagged on the tripping tick")
			}
			if !st.Config.Equal(equal) {
				t.Errorf("tick 29: config = %v, want equal split", st.Config.Alloc)
			}
			if !h.BreakerOpen || h.BreakerTrips != 1 {
				t.Errorf("tick 29: health = %+v, want breaker open after 1 trip", h)
			}
		case tick <= 34: // still failing, breaker holds
			if st.SafeFallback {
				t.Errorf("tick %d: SafeFallback re-flagged while already open", tick)
			}
			if !st.Config.Equal(equal) || !h.BreakerOpen {
				t.Errorf("tick %d: safe config not held while open", tick)
			}
		case tick == 35: // first clean tick: close, decide again
			if h.BreakerOpen || h.ConsecutiveFailures != 0 {
				t.Errorf("tick 35: breaker did not close on recovery: %+v", h)
			}
			if !st.Config.Equal(moved) {
				t.Error("tick 35: policy configuration not reinstated after recovery")
			}
		default:
			if h.BreakerOpen {
				t.Errorf("tick %d: breaker re-opened without faults", tick)
			}
		}
	}
	sum := loop.Summary()
	if sum.BreakerTrips != 1 || sum.SampleErrors != 15 {
		t.Errorf("summary = %+v, want 1 trip, 15 sample errors", sum)
	}
}

// A fault-free run through an idle injector must be byte-identical to an
// unwrapped run — the resilience machinery is inert without faults.
func TestLoopResilienceInertWithoutFaults(t *testing.T) {
	run := func(inject bool) ([]Status, Summary) {
		profiles := workloads.PARSEC()[:3]
		simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var platform rdt.Platform
		platform, err = rdt.NewSimPlatform(simulator)
		if err != nil {
			t.Fatal(err)
		}
		if inject {
			platform, err = rdt.NewFaultInjector(platform, rdt.FaultScript{})
			if err != nil {
				t.Fatal(err)
			}
		}
		loop, err := New(Options{
			Platform: platform,
			Policy:   func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []Status
		for tick := 1; tick <= 150; tick++ {
			st, err := loop.Step()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st)
		}
		return out, loop.Summary()
	}
	bare, bareSum := run(false)
	wrapped, wrappedSum := run(true)
	if bareSum != wrappedSum {
		t.Errorf("summaries diverge: %+v != %+v", wrappedSum, bareSum)
	}
	for i := range bare {
		a, b := bare[i], wrapped[i]
		if a.Throughput != b.Throughput || a.Fairness != b.Fairness || a.BaselineReset != b.BaselineReset {
			t.Fatalf("tick %d: statuses diverge: %+v != %+v", i+1, b, a)
		}
		for j := range a.IPS {
			if a.IPS[j] != b.IPS[j] {
				t.Fatalf("tick %d job %d: IPS diverges", i+1, j)
			}
		}
	}
}

// Identical fault scripts must replay identically — chaos is
// deterministic by construction.
func TestLoopFaultRunDeterministic(t *testing.T) {
	run := func() Summary {
		script := rdt.FaultScript{Seed: 3, SampleErrorRate: 0.05, ApplyErrorRate: 0.05}
		loop, _ := newFaultLoop(t, script, Options{})
		for tick := 1; tick <= 200; tick++ {
			if _, err := loop.Step(); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
		}
		return loop.Summary()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same script diverged: %+v != %+v", a, b)
	}
	if a.SampleErrors == 0 && a.RejectedApplies == 0 && a.Retries == 0 {
		t.Error("5% fault rates injected nothing over 200 ticks — script not wired?")
	}
}

// Regression for the metric-selection aliasing bug: GeoMeanSpeedup and
// JainIndex used to share the enum zero value with "unset", so asking for
// exactly this pairing was silently rewritten to SumIPS + Jain.
func TestNewHonorsExplicitMetrics(t *testing.T) {
	loop, _ := newFaultLoop(t, rdt.FaultScript{}, Options{Throughput: metrics.GeoMeanSpeedup, Fairness: metrics.JainIndex})
	if tm, fm := loop.Objectives(); tm != metrics.GeoMeanSpeedup || fm != metrics.JainIndex {
		t.Errorf("objectives = %v/%v, want geomean/jain", tm, fm)
	}
}

// SetObjectives swaps the goal formulas mid-run without disturbing the
// loop.
func TestLoopSetObjectives(t *testing.T) {
	loop, _ := newFaultLoop(t, rdt.FaultScript{}, Options{})
	if _, err := loop.Run(5); err != nil {
		t.Fatal(err)
	}
	loop.SetObjectives(metrics.GeoMeanSpeedup, metrics.OneMinusCoV)
	tm, fm := loop.Objectives()
	if tm != metrics.GeoMeanSpeedup || fm != metrics.OneMinusCoV {
		t.Errorf("objectives = %v/%v after switch", tm, fm)
	}
	if _, err := loop.Run(5); err != nil {
		t.Fatalf("loop unusable after goal switch: %v", err)
	}
	if loop.Summary().Ticks != 10 {
		t.Errorf("ticks = %d, want 10 (aggregates carry across the switch)", loop.Summary().Ticks)
	}
}

// A membership change is committed loop-side even when its baseline
// re-measurement fails: the platform already runs the new job set, so a
// loop still describing the old one would score the next observation
// against baselines of another length (the parent of this test panicked
// in metrics.Speedups). Instead the baselines are marked missing, every
// tick is held with ResetErr until a re-measurement lands, and the first
// scored observation carries BaselineReset.
func TestLoopChurnSurvivesFailedRemeasure(t *testing.T) {
	// Call 1 is the construction baseline. AddJob's measurement burns
	// calls 2-4 (1 + 2 retries), the next Step's refresh calls 5-7; the
	// Step after that measures successfully.
	loop, _ := newFaultLoop(t, rdt.FaultScript{Faults: []rdt.Fault{
		{Op: rdt.OpMeasureIsolated, Kind: rdt.FaultError, Call: 2, Repeat: 6},
	}}, Options{})
	if _, err := loop.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := loop.AddJob(workloads.PARSEC()[4]); !rdt.IsTransient(err) {
		t.Fatalf("AddJob error = %v, want the transient measurement failure", err)
	}
	inSync := func(when string) {
		t.Helper()
		if loop.NumJobs() != 4 || len(loop.Isolated()) != 4 {
			t.Fatalf("%s: %d jobs, %d baselines, want 4 and 4", when, loop.NumJobs(), len(loop.Isolated()))
		}
		if err := loop.Platform().Space().Validate(loop.current); err != nil {
			t.Fatalf("%s: loop configuration does not fit the live space: %v", when, err)
		}
	}
	inSync("after AddJob")
	st, err := loop.Step()
	if err != nil {
		t.Fatalf("held tick aborted: %v", err)
	}
	if !rdt.IsTransient(st.ResetErr) || st.Held != HeldNoBaselines || st.BaselineReset || st.Tick != 6 {
		t.Errorf("tick 6 should be held on missing baselines with ResetErr set: %+v", st)
	}
	if h := loop.Health(); h.ConsecutiveFailures != 1 {
		t.Errorf("held tick not breaker-eligible: %+v", h)
	}
	inSync("after the held tick")
	st, err = loop.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.ResetErr != nil || !st.BaselineReset || len(st.Speedups) != 4 || len(st.Config.Alloc[0]) != 4 {
		t.Errorf("tick 7 should score 4 jobs against fresh baselines: %+v", st)
	}
	if sum := loop.Summary(); sum.ResetErrs != 1 || sum.Ticks != 7 {
		t.Errorf("summary = %+v, want 1 reset error over 7 ticks", sum)
	}
	if !loop.Health().Healthy() {
		t.Errorf("loop did not recover: %+v", loop.Health())
	}
}

// The loop, not its callers, classifies a failed baseline refresh: a
// non-transient one aborts Step before the interval is observed, exactly
// as a non-transient Sample failure does.
func TestLoopFatalRefreshAbortsStep(t *testing.T) {
	loop, _ := newFaultLoop(t, rdt.FaultScript{Faults: []rdt.Fault{
		{Op: rdt.OpMeasureIsolated, Kind: rdt.FaultFatal, Call: 2},
	}}, Options{BaselineResetTicks: 10})
	if _, err := loop.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := loop.Step(); err == nil || rdt.IsTransient(err) {
		t.Fatalf("Step error = %v, want the fatal refresh failure", err)
	}
	if sum := loop.Summary(); sum.Ticks != 10 || sum.ResetErrs != 0 {
		t.Errorf("aborted Step was accounted: %+v", sum)
	}
}
