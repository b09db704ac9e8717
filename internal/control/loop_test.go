package control

import (
	"errors"
	"strings"
	"testing"

	"satori/internal/core"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// countingPlatform wraps a SimPlatform and counts baseline measurements,
// so tests can assert exactly when the loop re-records baselines. The
// embedded platform's churn methods promote, so the wrapper still
// satisfies rdt.Churner.
type countingPlatform struct {
	*rdt.SimPlatform
	isoCalls int
}

func (c *countingPlatform) MeasureIsolated() ([]float64, error) {
	c.isoCalls++
	return c.SimPlatform.MeasureIsolated()
}

func newCountingLoop(t *testing.T, resetEvery int) (*Loop, *countingPlatform) {
	t.Helper()
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingPlatform{SimPlatform: sp}
	loop, err := New(Options{
		Platform: cp,
		Policy: func(p rdt.Platform) (policy.Policy, error) {
			return policy.Static{}, nil
		},
		BaselineResetTicks: resetEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop, cp
}

// The loop must re-record isolated baselines exactly on the equalization
// schedule: once at construction (Algorithm 1 line 3), then at the start
// of the interval after every BaselineResetTicks boundary (line 13), with
// BaselineReset visible to the policy on precisely those intervals.
func TestLoopPeriodicBaselineRefresh(t *testing.T) {
	loop, cp := newCountingLoop(t, 50)
	for tick := 1; tick <= 120; tick++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatal(err)
		}
		want := tick == 1 || tick == 51 || tick == 101
		if st.BaselineReset != want {
			t.Errorf("tick %d: BaselineReset = %v, want %v", tick, st.BaselineReset, want)
		}
		if st.ResetErr != nil {
			t.Errorf("tick %d: unexpected ResetErr %v", tick, st.ResetErr)
		}
	}
	// 1 at construction + refreshes after the 50 and 100 boundaries.
	if cp.isoCalls != 3 {
		t.Errorf("MeasureIsolated calls = %d, want 3", cp.isoCalls)
	}
	if s := loop.Summary(); s.Ticks != 120 || s.RejectedApplies != 0 {
		t.Errorf("summary = %+v, want 120 ticks, 0 rejections", s)
	}
}

// A membership change between ticks re-measures baselines itself, which
// must preempt a periodic refresh due at the same boundary: the paper's
// equalization event is "baselines re-recorded", not "the timer fired".
func TestLoopChurnPreemptsPeriodicRefresh(t *testing.T) {
	loop, cp := newCountingLoop(t, 50)
	if _, err := loop.Run(50); err != nil {
		t.Fatal(err)
	}
	arrival := workloads.PARSEC()[4]
	if err := loop.ReplaceJob(1, arrival); err != nil {
		t.Fatal(err)
	}
	if cp.isoCalls != 2 { // construction + the churn re-measure
		t.Fatalf("MeasureIsolated calls after churn = %d, want 2", cp.isoCalls)
	}
	st, err := loop.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !st.BaselineReset {
		t.Error("tick 51 after churn: BaselineReset = false, want true")
	}
	if cp.isoCalls != 2 {
		t.Errorf("periodic refresh ran despite churn at the boundary: %d calls", cp.isoCalls)
	}
	// The next boundary (tick 100 → refresh at 101) is periodic again.
	if _, err := loop.Run(50); err != nil {
		t.Fatal(err)
	}
	if cp.isoCalls != 3 {
		t.Errorf("MeasureIsolated calls after tick 101 = %d, want 3", cp.isoCalls)
	}
}

// stalePolicy emits a configuration shaped for one more job than the
// space holds — the signature of a policy that missed a membership
// change.
type stalePolicy struct{}

func (stalePolicy) Name() string { return "stale" }

func (stalePolicy) Decide(_ policy.Observation, current resource.Config) resource.Config {
	alloc := make([][]int, len(current.Alloc))
	for r, row := range current.Alloc {
		alloc[r] = append(append([]int(nil), row...), 1)
	}
	return resource.Config{Alloc: alloc}
}

// A stale-shaped decision (right resource rows, wrong job dimension) is
// the policy/platform desync the churn contract forbids: Step must fail
// with the typed *StaleDecisionError wrapping the platform's
// *rdt.ConfigShapeError.
func TestLoopStaleDecisionIsFatal(t *testing.T) {
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Options{
		Platform: sp,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return stalePolicy{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = loop.Step()
	var stale *StaleDecisionError
	if !errors.As(err, &stale) {
		t.Fatalf("Step error = %v, want *StaleDecisionError", err)
	}
	if stale.Tick != 1 {
		t.Errorf("stale.Tick = %d, want 1", stale.Tick)
	}
	var shape *rdt.ConfigShapeError
	if !errors.As(err, &shape) {
		t.Fatal("StaleDecisionError does not unwrap to *rdt.ConfigShapeError")
	}
	if shape.ConfigJobs != 4 || shape.SpaceJobs != 3 {
		t.Errorf("shape = %+v, want config 4 jobs vs space 3", shape)
	}
}

// malformedPolicy emits the zero-value configuration: no allocation
// matrix at all. That is garbage, not staleness.
type malformedPolicy struct{}

func (malformedPolicy) Name() string { return "malformed" }

func (malformedPolicy) Decide(policy.Observation, resource.Config) resource.Config {
	return resource.Config{}
}

// A malformed decision must stay a recoverable rejection — surfaced as a
// HeldApplyRejected tick and counted in the summary, never escalated to
// the fatal stale-shape error (churn cannot change the resource rows).
func TestLoopMalformedDecisionIsRecoverable(t *testing.T) {
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Options{
		Platform: sp,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return malformedPolicy{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 10; tick++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatalf("tick %d: Step error %v (want recoverable rejection)", tick, err)
		}
		if st.Held != HeldApplyRejected || st.Err == nil {
			t.Fatalf("tick %d: held %q with error %v, want a rejected apply", tick, st.Held, st.Err)
		}
	}
	if s := loop.Summary(); s.RejectedApplies != 10 {
		t.Errorf("RejectedApplies = %d, want 10", s.RejectedApplies)
	}
}

// Backends without the rdt.Churner capability must refuse membership
// churn with the typed sentinel, leaving the loop fully usable.
func TestLoopChurnUnsupported(t *testing.T) {
	sampler, err := rdt.NewTraceSampler(
		[]float64{2e9, 3e9},
		[][]float64{{1e9, 1.5e9}, {1.1e9, 1.4e9}},
	)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := rdt.NewResctrlPlatform(sim.DefaultMachine(), []string{"a", "b"},
		rdt.ResctrlWriter{Root: t.TempDir()}, sampler, nil)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Options{
		Platform: platform,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	arrival := workloads.PARSEC()[0]
	if err := loop.AddJob(arrival); !errors.Is(err, ErrChurnUnsupported) {
		t.Errorf("AddJob error = %v, want ErrChurnUnsupported", err)
	}
	if err := loop.RemoveJob(0); !errors.Is(err, ErrChurnUnsupported) {
		t.Errorf("RemoveJob error = %v, want ErrChurnUnsupported", err)
	}
	if err := loop.ReplaceJob(0, arrival); !errors.Is(err, ErrChurnUnsupported) {
		t.Errorf("ReplaceJob error = %v, want ErrChurnUnsupported", err)
	}
	if n := loop.NumJobs(); n != 2 {
		t.Errorf("NumJobs = %d, want 2 via the space fallback", n)
	}
	if _, err := loop.Step(); err != nil {
		t.Errorf("loop unusable after refused churn: %v", err)
	}
}

// scribblingPlatform wraps a SimPlatform and, while units is not 0,
// reports a current configuration whose first job holds units units of
// the first resource: a platform outside the loop's control that reports
// nonsense.
type scribblingPlatform struct {
	*rdt.SimPlatform
	units int
}

func (p *scribblingPlatform) Current() resource.Config {
	c := p.SimPlatform.Current()
	if p.units != 0 {
		c = c.Clone()
		c.Alloc[0][0] = p.units
	}
	return c
}

// TestLoopRefusesAnInvalidCurrentConfiguration: a platform whose current
// configuration holds a unit count outside [1, Units] — −1, then Units+1 —
// is refused with an error that names it, by New when it reports one from
// the start and by Step when it reports one after an Apply, and the
// SATORI engine behind the loop, which indexes by those units, is never
// handed it.
func TestLoopRefusesAnInvalidCurrentConfiguration(t *testing.T) {
	simulator, err := sim.New(sim.DefaultMachine(), workloads.PARSEC()[:3], sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	engine := func(p rdt.Platform) (policy.Policy, error) { return core.New(p.Space(), core.Options{Seed: 1}) }
	for _, units := range []int{-1, sp.Space().Resources[0].Units + 1} {
		p := &scribblingPlatform{SimPlatform: sp, units: units}
		if _, err := New(Options{Platform: p, Policy: engine}); err == nil || !strings.Contains(err.Error(), "scribblingPlatform") {
			t.Fatalf("units %d: New returned %v, want an error naming the platform", units, err)
		}
		p.units = 0
		loop, err := New(Options{Platform: p, Policy: engine})
		if err != nil {
			t.Fatal(err)
		}
		p.units = units
		for tick := 1; ; tick++ {
			_, err := loop.Step()
			if err != nil {
				if !strings.Contains(err.Error(), "scribblingPlatform") {
					t.Fatalf("units %d tick %d: Step returned %v, want an error naming the platform", units, tick, err)
				}
				break
			}
			if tick == 20 {
				t.Fatalf("units %d: 20 steps over a platform reporting an invalid configuration returned no error", units)
			}
		}
	}
}
