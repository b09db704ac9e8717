package satori_test

import (
	"slices"
	"strings"
	"testing"

	"satori"
	"satori/internal/rdt"
	"satori/internal/stack"
)

// platformOf assembles spec the way cmd/satori and cmd/satorid do and
// returns the platform under the loop. The tests here pair that platform
// with policies built through the public facade, so Build's own loop
// (spec's policy is the inert "static") is discarded.
func platformOf(t *testing.T, spec stack.Spec) satori.Platform {
	t.Helper()
	loop, err := spec.Build(60)
	if err != nil {
		t.Fatal(err)
	}
	return loop.Platform()
}

// injected is PARSEC mix 0 on the simulator behind a fault injector whose
// one scripted fault lies beyond every run here — the stack -fault
// drives, silent.
var injected = stack.Spec{Suite: "parsec", Policy: "static", Seed: 3, Backend: "sim", Fault: "apply:error@100000"}

// injectedSim is the platform under the injected stack, and the simulator
// beneath it.
func injectedSim(t *testing.T) (satori.Platform, *rdt.SimPlatform) {
	t.Helper()
	platform := platformOf(t, injected)
	if _, ok := platform.(*rdt.FaultInjector); !ok {
		t.Fatalf("-fault built a %T, want the injector outermost", platform)
	}
	sp, ok := rdt.As[*rdt.SimPlatform](platform)
	if !ok {
		t.Fatal("no simulator platform under the injector")
	}
	return platform, sp
}

// A clustered policy built on a decorated platform must still install its
// grouping: the injector used to hide the Grouper capability, so the
// simulator kept one control group per job — the thing clustering exists
// to avoid.
func TestClusteredPolicyGroupsThroughInjector(t *testing.T) {
	for name, run := range map[string]func() (satori.Platform, error){
		"satori-clustered": func() (satori.Platform, error) {
			platform, _ := injectedSim(t)
			sess, err := satori.NewSessionOn(platform, satori.SessionConfig{
				Policy: satori.NewClusteredSatoriPolicy(2, satori.EngineOptions{Seed: 3}), Seed: 3})
			if err != nil {
				return nil, err
			}
			_, err = sess.Run(50)
			return platform, err
		},
		// lfoc at a budget other than its default is -cluster-k's, so it
		// is built the way the binaries build it.
		"lfoc": func() (satori.Platform, error) {
			spec := injected
			spec.Policy, spec.ClusterK = "lfoc", 2
			loop, err := spec.Build(50)
			if err != nil {
				return nil, err
			}
			_, err = loop.Run(50)
			return loop.Platform(), err
		},
	} {
		platform, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := platform.(*rdt.FaultInjector); !ok {
			t.Fatalf("%s: ran on a %T, want the injector outermost", name, platform)
		}
		sp, ok := rdt.As[*rdt.SimPlatform](platform)
		if !ok {
			t.Fatalf("%s: no simulator platform under the injector", name)
		}
		if got := len(sp.Plan().Jobs); got != 2 {
			t.Errorf("%s: platform plan has %d control groups for 5 jobs, want 2 clusters", name, got)
		}
	}
}

// traceDrivenResctrl is a 3-job resctrl platform on a scratch root
// replaying the 60-tick IPS trace -backend resctrl synthesizes from the
// simulator — no simulator underneath.
func traceDrivenResctrl(t *testing.T) satori.Platform {
	t.Helper()
	return platformOf(t, stack.Spec{Workloads: "blackscholes,canneal,fluidanimate", Policy: "static", Seed: 3,
		Backend: "resctrl", ResctrlRoot: t.TempDir()})
}

// Every registry name builds on a decorated simulator platform, and every
// name but the oracles builds on a platform with no simulator underneath
// and runs there, honouring the seed; the oracles are refused with an
// error that names the policy and what it needs.
func TestNamedPoliciesOnDecoratedPlatforms(t *testing.T) {
	for _, name := range satori.PolicyNames() {
		build, err := satori.NewPolicyByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		platform, _ := injectedSim(t)
		sess, err := satori.NewSessionOn(platform, satori.SessionConfig{Policy: build, Seed: 3})
		if err != nil {
			t.Errorf("%s on an injected simulator: %v", name, err)
			continue
		}
		if _, err := sess.Run(5); err != nil {
			t.Errorf("%s: %v", name, err)
		}

		sess, err = satori.NewSessionOn(traceDrivenResctrl(t), satori.SessionConfig{Policy: build, Seed: 3})
		if strings.HasSuffix(name, "-oracle") {
			if err == nil {
				t.Errorf("%s built on a platform with no simulator", name)
			} else if msg := err.Error(); !strings.Contains(msg, `"`+name+`"`) || !strings.Contains(msg, "simulator") {
				t.Errorf("%s: error does not name the policy and what it needs: %v", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s on a trace-driven resctrl platform: %v", name, err)
			continue
		}
		if _, err := sess.Run(60); err != nil {
			t.Errorf("%s over its trace: %v", name, err)
		}
	}

	// The seed reaches the policy on every backend: satori-static used to
	// be built with seed 0 on the resctrl path whatever the caller passed.
	decisions := func(seed uint64) []string {
		build, err := satori.NewPolicyByName("satori-static", seed)
		if err != nil {
			t.Fatal(err)
		}
		platform := traceDrivenResctrl(t)
		sess, err := satori.NewSessionOn(platform, satori.SessionConfig{Policy: build, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 60)
		for i := range out {
			st, err := sess.Step()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = platform.Space().String(st.Config)
		}
		return out
	}
	if a, b := decisions(1), decisions(2); slices.Equal(a, b) {
		t.Error("satori-static made the same 60 decisions under seeds 1 and 2")
	}
	if a, b := decisions(1), decisions(1); !slices.Equal(a, b) {
		t.Error("satori-static is not reproducible under one seed")
	}
}
