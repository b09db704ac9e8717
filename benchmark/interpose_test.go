package main

import (
	"testing"
	"time"

	"satori"
	"satori/internal/rdt"
	"satori/internal/sim"
)

// TestTracingDoesNotChangeTheRun is the proof that observing did not change
// what was observed: for every deterministic workload, a smoke-scale round
// with the policy and platform seams wrapped ends on the same digest and
// the same scores as the bare round at the same seed.
func TestTracingDoesNotChangeTheRun(t *testing.T) {
	for _, w := range allWorkloads {
		if !w.deterministic {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			e := smoke
			e.seed = workloadSeed(3, w.name)
			e.slice = 50 * time.Millisecond
			plain, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			e.tr = newTracer(w.opName, 1<<18)
			e.tr.paused.Store(true)
			traced, err := w.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest == "" || plain.digest != traced.digest || plain.quality != traced.quality {
				t.Errorf("untraced digest %q scores %v, traced digest %q scores %v", plain.digest, plain.quality, traced.digest, traced.quality)
			}
			if len(e.tr.recorded()) == 0 || e.tr.dropped.Load() != 0 {
				t.Errorf("%d spans recorded, %d dropped", len(e.tr.recorded()), e.tr.dropped.Load())
			}
			if n := e.tr.invalid.Load(); n != 0 {
				t.Errorf("%d applied configurations failed Space.Validate", n)
			}
		})
	}
}

// TestTracedPlatformKeepsEveryCapability: the control loop finds optional
// platform abilities by type assertion, so the wrapper must answer to all
// six exactly as the simulator platform does.
func TestTracedPlatformKeepsEveryCapability(t *testing.T) {
	simulator, err := sim.New(sim.DefaultMachine(), paperMix0(), sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	var p rdt.Platform = tracePlatform(bare, newTracer("test", 64))
	if _, ok := p.(*tracedPlatform); !ok {
		t.Fatalf("the simulator platform was not wrapped: %T", p)
	}
	for name, ok := range map[string]bool{
		"Churner":      is[rdt.Churner](p),
		"FastSampler":  is[rdt.FastSampler](p),
		"BatchSampler": is[rdt.BatchSampler](p),
		"SLOProvider":  is[rdt.SLOProvider](p),
		"Grouper":      is[rdt.Grouper](p),
		"CLOSLimiter":  is[rdt.CLOSLimiter](p),
	} {
		if !ok {
			t.Errorf("traced platform lost the %s capability", name)
		}
	}
}

func is[T any](v any) bool { _, ok := v.(T); return ok }

// TestTracedPolicyForwardsRegroups: only a policy that reports cluster
// migrations may look like one once wrapped.
func TestTracedPolicyForwardsRegroups(t *testing.T) {
	tr := newTracer("test", 64)
	type regrouper interface{ Regroups() int }
	for _, c := range []struct {
		name  string
		build func(satori.Platform) (satori.Policy, error)
		want  bool
	}{
		{"satori", satori.NewSatoriPolicy(satori.EngineOptions{Seed: 1}), false},
		{"satori-clustered", satori.NewClusteredSatoriPolicy(8, satori.EngineOptions{Seed: 1}), true},
	} {
		simulator, err := sim.New(wideMachine(), cycledPARSEC(24), sim.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		platform, err := rdt.NewSimPlatform(simulator)
		if err != nil {
			t.Fatal(err)
		}
		in, err := c.build(platform)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := tracePolicy(in, tr)
		if wrapped.Name() != in.Name() || unwrapPolicy(wrapped) != in {
			t.Errorf("%s: wrapper does not forward Name or Unwrap", c.name)
		}
		if _, got := wrapped.(regrouper); got != c.want {
			t.Errorf("%s: wrapped policy reports Regroups = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSelfTimeIsParentMinusUnionOfChildren: children that overlap (parallel
// workers) must not be subtracted twice.
func TestSelfTimeIsParentMinusUnionOfChildren(t *testing.T) {
	tr := newTracer("op", 8)
	tr.spans[0] = span{start: 0, end: 100, parent: -1, kind: spanOp}
	tr.spans[1] = span{start: 10, end: 40, parent: 0, kind: spanSample}
	tr.spans[2] = span{start: 30, end: 60, parent: 0, kind: spanApply}   // overlaps the sample
	tr.spans[3] = span{start: 90, end: 120, parent: 0, kind: spanDecide} // runs past the parent
	tr.n.Store(4)
	got := tr.selfTimes(spanOp)
	if len(got) != 1 || got[0] != 100-50-10 {
		t.Errorf("self time %v, want [40]", got)
	}
}
