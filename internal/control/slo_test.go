package control

import (
	"math"
	"testing"

	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/slo"
)

// specAtCrit builds a Spec whose critical IPS equals crit exactly
// (crit = SI·(λ + ln100/target), solved for SI).
func specAtCrit(crit float64) *slo.Spec {
	const lambda, target = 100.0, 0.02
	return &slo.Spec{
		TargetP99:           target,
		ServiceInstructions: crit / (lambda + math.Log(100)/target),
		ArrivalRate:         lambda,
	}
}

// batchTestProfile is a long single-phase batch job for LC co-location
// tests: no phase edges of its own, so the horizon limiters under test
// are the LC job's.
func batchTestProfile(name string) *sim.Profile {
	return &sim.Profile{
		Name: name, Suite: "test",
		Phases: []sim.Phase{{
			Name: "steady", Instructions: 1e13, IPSPeak: 1.6e10,
			SerialFrac: 0.1, MPIMax: 0.014, MPIMin: 0.005,
			WaysHalf: 2.0, MemStallCost: 190,
		}},
	}
}

// newLCOnsetMix builds a 3-job mix whose LC job crosses from a
// comfortably attaining phase into a violating one mid-run: phase
// "fast" runs ~60 ticks well above the critical rate, then phase
// "slow" drops the job well below it. The spec's critical rate is
// placed midway between the two measured levels, outside the onset
// margin of both, so extrapolation is legal in both steady states and
// the ONLY correctness question is whether a driver can jump the onset.
func newLCOnsetMix(t *testing.T) []*sim.Profile {
	t.Helper()
	fast := sim.Phase{
		Name: "fast", Instructions: 1e13, IPSPeak: 2.4e10,
		SerialFrac: 0.05, MPIMax: 0.008, MPIMin: 0.003,
		WaysHalf: 1.5, MemStallCost: 120,
	}
	slow := sim.Phase{
		Name: "slow", Instructions: 1e13, IPSPeak: 7e9,
		SerialFrac: 0.3, MPIMax: 0.03, MPIMin: 0.015,
		WaysHalf: 4.0, MemStallCost: 260,
	}
	level := func(ph sim.Phase) float64 {
		p := &sim.Profile{Name: "probe", Suite: "test", Phases: []sim.Phase{ph}}
		mix := []*sim.Profile{p, batchTestProfile("b1"), batchTestProfile("b2")}
		s, err := sim.New(sim.DefaultMachine(), mix, sim.Options{NoiseSigma: -1})
		if err != nil {
			t.Fatal(err)
		}
		ips, err := s.ExactIPS(s.Current())
		if err != nil {
			t.Fatal(err)
		}
		return ips[0]
	}
	fastIPS, slowIPS := level(fast), level(slow)
	crit := (fastIPS + slowIPS) / 2
	for _, v := range []float64{fastIPS, slowIPS} {
		if math.Abs(v-crit) <= slo.DefaultOnsetMargin*crit {
			t.Fatalf("steady level %.3g inside the onset margin of crit %.3g — retune the test phases", v, crit)
		}
	}
	// Size the fast phase to end near tick 60 at the observed rate.
	fast.Instructions = fastIPS * sim.TickSeconds * 60
	lc := &sim.Profile{Name: "lc", Suite: "test", Phases: []sim.Phase{fast, slow}}
	lc.SLO = specAtCrit(crit)
	return []*sim.Profile{lc, batchTestProfile("b1"), batchTestProfile("b2")}
}

func newLCLoop(t *testing.T, mix []*sim.Profile, sampling SamplingOptions, sloOpt SLOOptions) *Loop {
	t.Helper()
	simulator, err := sim.New(sim.DefaultMachine(), mix, sim.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Options{
		Platform: sp,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
		Sampling: sampling,
		SLO:      sloOpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// TestViolationOnsetNeverSkipped is the SLO analog of the phase-edge
// extrapolation rule, and the regression test the fast path must keep
// honest: an event-driven driver that jumps with SkipIdle through every
// IdleHorizon promise must observe the exact violation onset a lockstep
// loop observes — same onset count, same violated-tick count, same first
// violating tick. If a jump extrapolates across the onset, the counts (or
// the onset tick itself) shift and this test fails.
func TestViolationOnsetNeverSkipped(t *testing.T) {
	mix := newLCOnsetMix(t)
	const ticks = 150
	sampling := SamplingOptions{Enabled: true, MaxRun: 100}

	// Lockstep reference.
	lock := newLCLoop(t, mix, sampling, SLOOptions{})
	lockFirst := -1
	for i := 0; i < ticks; i++ {
		st, err := lock.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.SLOViolating && lockFirst < 0 {
			lockFirst = st.Tick
		}
	}
	ls := lock.Summary()
	if ls.SLOOnsets != 1 || lockFirst < 0 {
		t.Fatalf("lockstep run saw %d onsets (first violating tick %d), want exactly 1 — the scenario no longer crosses the boundary", ls.SLOOnsets, lockFirst)
	}
	if ls.SLOViolatedTicks == 0 {
		t.Fatal("lockstep run accumulated no violated ticks")
	}

	// Event-driven driver: honor every promise with SkipIdle. While the
	// detector is mid-streak the horizon must be zero — a promise there
	// could jump the flip — so jumps are only granted in steady states,
	// the onset itself is always seen by a Step, and the violated-tick
	// ledger still matches lockstep exactly.
	skip := newLCLoop(t, mix, sampling, SLOOptions{})
	skipFirst, skips := -1, 0
	for skip.Ticks() < ticks {
		h := min(skip.IdleHorizon(), ticks-skip.Ticks())
		if skip.slo.det.MidStreak() && h != 0 {
			t.Fatalf("tick %d: IdleHorizon = %d while the detector is mid-streak, want 0", skip.Ticks(), h)
		}
		if h > 0 {
			if err := skip.SkipIdle(h); err != nil {
				t.Fatal(err)
			}
			skips++
			continue
		}
		st, err := skip.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.SLOViolating && skipFirst < 0 {
			skipFirst = st.Tick
		}
	}
	ss := skip.Summary()
	if skips == 0 {
		t.Fatal("event-driven driver never got an idle promise — the fast path is not exercised")
	}
	if ss.SLOOnsets != ls.SLOOnsets || ss.SLOViolatedTicks != ls.SLOViolatedTicks {
		t.Fatalf("coarse-skip onset accounting diverged: onsets %d violated %d, lockstep %d/%d",
			ss.SLOOnsets, ss.SLOViolatedTicks, ls.SLOOnsets, ls.SLOViolatedTicks)
	}
	if skipFirst != lockFirst {
		t.Fatalf("event-driven driver first saw the violation at tick %d, lockstep at %d", skipFirst, lockFirst)
	}
}

// TestGoalSwitchHysteresis pins the tracker's switching contract: the
// fairness channel flips to SLO recovery only after OnsetTicks
// consecutive violating observations, flips back only after ClearTicks
// attaining ones, and each direction counts one switch. The scored
// value while switched is the WORST service's attainment.
func TestGoalSwitchHysteresis(t *testing.T) {
	spec := specAtCrit(1e9)
	tr := &sloTracker{
		specs:      []*slo.Spec{spec, nil},
		det:        slo.NewDetector(2, 3),
		goalSwitch: true,
	}
	bad := []float64{5e8, 1e9}  // LC job at half its critical rate
	good := []float64{2e9, 1e9} // LC job at twice its critical rate

	tr.observe(bad)
	if tr.switched {
		t.Fatal("switched after 1 violating observation (onset=2)")
	}
	tr.observe(bad)
	if !tr.switched || tr.switches != 1 {
		t.Fatalf("no switch after onset: switched=%v switches=%d", tr.switched, tr.switches)
	}
	if tr.recovery != spec.AttainFrac(bad[0]) {
		t.Fatalf("recovery score %v, want worst-service attainment %v", tr.recovery, spec.AttainFrac(bad[0]))
	}
	// Two attaining ticks are not enough to clear (clear=3)...
	tr.observe(good)
	tr.observe(good)
	if !tr.switched {
		t.Fatal("switch reverted before ClearTicks attaining observations")
	}
	// ...and a violating tick resets the clearing streak entirely.
	tr.observe(bad)
	tr.observe(good)
	tr.observe(good)
	if !tr.switched {
		t.Fatal("clearing streak survived an interleaved violation")
	}
	tr.observe(good)
	if tr.switched || tr.switches != 2 {
		t.Fatalf("no revert after 3 consecutive attaining observations: switched=%v switches=%d", tr.switched, tr.switches)
	}
	// The accounting survived the round trip.
	if tr.det.Onsets() != 1 || tr.det.Violating() {
		t.Fatalf("detector counted %d onsets, violating %v; want 1 onset, cleared", tr.det.Onsets(), tr.det.Violating())
	}
	if tr.violTicks == 0 {
		t.Fatal("no violated ticks accumulated")
	}

	// Without GoalSwitch the same detector trajectory never switches.
	plain := &sloTracker{specs: []*slo.Spec{spec}, det: slo.NewDetector(2, 3)}
	for i := 0; i < 10; i++ {
		plain.observe(bad[:1])
	}
	if plain.switched || plain.switches != 0 {
		t.Fatalf("goalSwitch=false tracker switched: %+v", plain)
	}
	if !plain.det.Violating() {
		t.Fatal("detector did not confirm the violation")
	}
}
