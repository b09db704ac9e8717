package control

import (
	"errors"
	"math"
	"testing"

	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// newSimLoopReset builds a loop over three PARSEC jobs on the simulator
// with a custom equalization period (0: the default), so horizon/boundary
// interactions are testable without 100-tick runs.
func newSimLoopReset(t *testing.T, pol policy.Policy, resetEvery int) *Loop {
	t.Helper()
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := New(Options{
		Platform:           sp,
		Policy:             func(rdt.Platform) (policy.Policy, error) { return pol, nil },
		BaselineResetTicks: resetEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// IdleHorizon must stay zero until the stability window arms, must never
// promise past the next equalization boundary, and must zero itself at a
// refresh-due tick.
func TestIdleHorizonGating(t *testing.T) {
	resetEvery := 25
	loop := newSimLoopReset(t, policy.Static{}, resetEvery)
	if h := loop.IdleHorizon(); h != 0 {
		t.Fatalf("fresh loop IdleHorizon = %d, want 0 (window not armed)", h)
	}
	armed := false
	for i := 0; i < 4*resetEvery; i++ {
		if _, err := loop.Step(); err != nil {
			t.Fatal(err)
		}
		h := loop.IdleHorizon()
		if h > 0 {
			armed = true
		}
		if toBoundary := resetEvery - loop.Ticks()%resetEvery; loop.Ticks()%resetEvery != 0 && h > toBoundary {
			t.Fatalf("tick %d: IdleHorizon %d skips the equalization boundary %d ticks away", loop.Ticks(), h, toBoundary)
		}
		if loop.Ticks()%resetEvery == 0 && !loop.pendReset && h != 0 {
			t.Fatalf("tick %d: IdleHorizon %d at a refresh-due boundary, want 0", loop.Ticks(), h)
		}
	}
	if !armed {
		t.Fatal("IdleHorizon never armed over a phase-stable static run")
	}
}

// A driver that jumps with SkipIdle whenever a promise is open runs the
// same number of ticks as a lockstep loop stepping every one, and every
// skipped interval is accounted: one aggregate sample per tick (the last
// good tick's scores, held), counted idle and sampled. The trajectory is
// not bit-identical — the skipped intervals' noise is not realized — so
// the run means agree only to within that noise.
func TestSkipIdleDriverTracksLockstep(t *testing.T) {
	lockstep := newSimLoop(t, policy.Static{})
	idle := newSimLoop(t, policy.Static{})
	const ticks = 400
	if _, err := lockstep.Run(ticks); err != nil {
		t.Fatal(err)
	}
	skips := 0
	for idle.Ticks() < ticks {
		h := min(idle.IdleHorizon(), ticks-idle.Ticks())
		if h == 0 {
			st, err := idle.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.Tick != idle.Ticks() || st.Held != 0 {
				t.Fatalf("step after %d skips: %+v, want a landed tick %d", skips, st, idle.Ticks())
			}
			continue
		}
		before := idle.Ticks()
		if err := idle.SkipIdle(h); err != nil {
			t.Fatal(err)
		}
		if idle.Ticks() != before+h {
			t.Fatalf("SkipIdle(%d) advanced %d ticks", h, idle.Ticks()-before)
		}
		skips++
	}
	if skips == 0 {
		t.Fatal("driver never found an open idle promise on a static phase-stable run")
	}
	ls, is := lockstep.Summary(), idle.Summary()
	if ls.Ticks != is.Ticks {
		t.Fatalf("ticks: lockstep %d idle %d", ls.Ticks, is.Ticks)
	}
	if n := idle.accT.N(); n != ticks || idle.accF.N() != ticks || idle.accObj.N() != ticks {
		t.Fatalf("aggregates hold %d samples over %d ticks: skipped intervals are not tick-weighted", n, ticks)
	}
	const noise = 0.01
	if math.Abs(ls.MeanThroughput-is.MeanThroughput) > noise || math.Abs(ls.MeanFairness-is.MeanFairness) > noise ||
		math.Abs(ls.MeanObjective-is.MeanObjective) > noise {
		t.Fatalf("aggregates diverged beyond noise:\nlockstep %+v\nidle     %+v", ls, is)
	}
	if is.IdleTicks == 0 || is.SampledTicks < is.IdleTicks {
		t.Fatalf("idle driver reported %d idle / %d sampled ticks", is.IdleTicks, is.SampledTicks)
	}
	if ls.IdleTicks != 0 {
		t.Fatal("lockstep loop reported IdleTicks")
	}
	t.Logf("idle driver: %d/%d ticks in %d skips (%d sampled); objective %.4f vs lockstep %.4f",
		is.IdleTicks, is.Ticks, skips, is.SampledTicks, is.MeanObjective, ls.MeanObjective)
}

// Honoring the promise: a jump inside IdleHorizon is accounted wholly as
// extrapolated idle ticks (no hidden detailed samples), since the fleet's
// cost model depends on it.
func TestSkipIdleStaysSampled(t *testing.T) {
	loop := newSimLoop(t, policy.Static{})
	for i := 0; i < 600 && loop.IdleHorizon() == 0; i++ {
		if _, err := loop.Step(); err != nil {
			t.Fatal(err)
		}
	}
	h := loop.IdleHorizon()
	if h == 0 {
		t.Fatal("no idle promise after 600 warmup ticks")
	}
	before := loop.Summary().SampledTicks
	if err := loop.SkipIdle(h); err != nil {
		t.Fatal(err)
	}
	if got := loop.Summary().SampledTicks - before; got != h {
		t.Fatalf("SkipIdle(%d) extrapolated only %d ticks", h, got)
	}
	if got := loop.Summary().IdleTicks; got != h {
		t.Fatalf("IdleTicks = %d, want %d", got, h)
	}
}

// SkipIdle is the coarse batched jump: O(jobs) per flush rather than per
// tick. It must advance the clock and aggregates tick-weighted (holding
// the last good scores), stay deterministic across replays, and leave the
// loop steppable — but it does not promise the lockstep-identical
// trajectory.
func TestSkipIdleCoarseBatch(t *testing.T) {
	run := func() (*Loop, int) {
		loop := newSimLoop(t, policy.Static{})
		for i := 0; i < 600 && loop.IdleHorizon() == 0; i++ {
			if _, err := loop.Step(); err != nil {
				t.Fatal(err)
			}
		}
		h := loop.IdleHorizon()
		if h == 0 {
			t.Fatal("no idle promise after 600 warmup ticks")
		}
		before := loop.Ticks()
		if err := loop.SkipIdle(h); err != nil {
			t.Fatal(err)
		}
		if got := loop.Ticks() - before; got != h {
			t.Fatalf("SkipIdle(%d) advanced %d ticks", h, got)
		}
		return loop, h
	}
	loop, h := run()
	s := loop.Summary()
	if s.IdleTicks != h || s.SampledTicks < h {
		t.Fatalf("skip not accounted as idle+sampled: %+v (h=%d)", s, h)
	}
	if s.Ticks != loop.Ticks() {
		t.Fatalf("Summary.Ticks %d != clock %d", s.Ticks, loop.Ticks())
	}
	// The loop keeps working after the jump: the next detailed step must
	// land on the post-skip clock.
	st, err := loop.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != loop.Ticks() || st.Held != 0 {
		t.Fatalf("post-skip step broken: %+v", st)
	}
	// Replays agree exactly — the jump is a pure function of loop state.
	other, _ := run()
	ot, err := other.Step()
	if err != nil {
		t.Fatal(err)
	}
	for j := range st.IPS {
		if st.IPS[j] != ot.IPS[j] {
			t.Fatalf("post-skip replay diverged at job %d: %v vs %v", j, st.IPS[j], ot.IPS[j])
		}
	}
	os, ls := other.Summary(), loop.Summary()
	if os.MeanThroughput != ls.MeanThroughput || os.MeanObjective != ls.MeanObjective {
		t.Fatalf("replay aggregates diverged: %+v vs %+v", os, ls)
	}
}

// opaque decorates a platform without Unwrap, hiding every capability.
type opaque struct{ rdt.Platform }

// A platform that cannot jump a run of intervals is never promised idle
// ticks, and a SkipIdle against it — or past what a batch-capable platform
// will jump — is a typed refusal that leaves clock and aggregates alone;
// there is no second, replayed idle path to fall back on.
func TestSkipIdleRefusedIsTyped(t *testing.T) {
	simulator, err := sim.New(sim.DefaultMachine(), workloads.PARSEC()[:3], sim.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	decorated, err := New(Options{
		Platform: opaque{sp},
		Policy:   func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, loop := range map[string]*Loop{
		"opaque decorator":         decorated,
		"past the platform's jump": newSimLoop(t, policy.Static{}),
	} {
		for i := 0; i < 60; i++ {
			if _, err := loop.Step(); err != nil {
				t.Fatal(err)
			}
			if loop.batch == nil && loop.IdleHorizon() != 0 {
				t.Fatalf("%s: tick %d: IdleHorizon = %d without a batch capability", name, loop.Ticks(), loop.IdleHorizon())
			}
		}
		n := 3
		if loop.batch != nil {
			n = loop.batch.FastHorizon() + 1
		}
		before, health := loop.Summary(), loop.Health()
		if err := loop.SkipIdle(n); !errors.Is(err, ErrSkipRefused) {
			t.Fatalf("%s: SkipIdle(%d) = %v, want ErrSkipRefused", name, n, err)
		}
		if loop.Summary() != before || loop.Health() != health || loop.accT.N() != 60 {
			t.Fatalf("%s: a refused skip moved the loop: %+v -> %+v", name, before, loop.Summary())
		}
		if st, err := loop.Step(); err != nil || st.Tick != 61 || st.Held != 0 {
			t.Fatalf("%s: step after the refusal: %+v, %v", name, st, err)
		}
	}
}
