package satori_test

import (
	"strings"
	"testing"

	"satori"
	"satori/internal/rdt"
	"satori/internal/sim"
)

// injectedSim builds a 5-job simulator platform behind a (silent) fault
// injector — the stack satorid -fault and harness.RunSpec.Faults drive.
func injectedSim(t *testing.T) (*rdt.FaultInjector, *rdt.SimPlatform) {
	t.Helper()
	simulator, err := sim.New(satori.DefaultMachine(), parsecJobs(t, 5), sim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := rdt.NewFaultInjector(sp, rdt.FaultScript{})
	if err != nil {
		t.Fatal(err)
	}
	return fi, sp
}

// A clustered policy built on a decorated platform must still install its
// grouping: the injector used to hide the Grouper capability, so the
// simulator kept one control group per job — the thing clustering exists
// to avoid.
func TestClusteredPolicyGroupsThroughInjector(t *testing.T) {
	for name, build := range map[string]func(satori.Platform) (satori.Policy, error){
		"satori-clustered": satori.NewClusteredSatoriPolicy(2, satori.EngineOptions{Seed: 3}),
		"lfoc":             satori.NewLFOCPolicy(2),
	} {
		platform, sp := injectedSim(t)
		sess, err := satori.NewSessionOn(platform, satori.SessionConfig{Policy: build, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sess.Run(50); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(sp.Plan().Jobs); got != 2 {
			t.Errorf("%s: platform plan has %d control groups for 5 jobs, want 2 clusters", name, got)
		}
	}
}

// Every registry name builds on a decorated simulator platform, and a
// platform with no simulator underneath is refused with an error that
// names the policy — not one that blames oracles for parties.
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
	}

	sampler, err := rdt.NewTraceSampler([]float64{2e9, 2e9}, [][]float64{{1e9, 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	resctrl, err := rdt.NewResctrlPlatform(satori.DefaultMachine(), []string{"a", "b"},
		rdt.ResctrlWriter{Root: t.TempDir()}, sampler)
	if err != nil {
		t.Fatal(err)
	}
	build, err := satori.NewPolicyByName("parties", 3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = build(resctrl)
	if err == nil {
		t.Fatal("registry policy built on a platform with no simulator")
	}
	if msg := err.Error(); !strings.Contains(msg, `"parties"`) || !strings.Contains(msg, "simulator") || strings.Contains(msg, "oracle") {
		t.Errorf("error does not name the policy and what it needs: %v", err)
	}
}
