package harness

import (
	"testing"

	"satori/internal/control"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// A node running one job has a space of one configuration, and every
// registered policy — the BO engines, the clustered ones (inner space one
// cluster wide), the baselines and the oracles alike — must land exactly it
// on every tick, with nothing rejected or held along the way.
func TestEveryPolicyDecidesTheOnlyConfigurationOfOneJob(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			simulator, err := sim.New(sim.DefaultMachine(), workloads.PARSEC()[:1], sim.Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			platform, err := rdt.NewSimPlatform(simulator)
			if err != nil {
				t.Fatal(err)
			}
			build, _, err := ResolvePolicy(name, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			loop, err := control.New(control.Options{Platform: platform, Policy: build})
			if err != nil {
				t.Fatal(err)
			}
			only := platform.Space().EqualSplit()
			if size := platform.Space().Size(); size != 1 {
				t.Fatalf("a 1-job space holds %g configurations", size)
			}
			// 120 ticks cross the equalization-period baseline refresh.
			for tick := 1; tick <= 120; tick++ {
				st, err := loop.Step()
				if err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				if !st.Config.Equal(only) {
					t.Fatalf("tick %d: installed %s, the space holds only %s",
						tick, platform.Space().String(st.Config), platform.Space().String(only))
				}
			}
			if sum := loop.Summary(); sum.RejectedApplies != 0 || sum.BadSamples != 0 {
				t.Errorf("summary = %s, want nothing rejected or held", sum)
			}
		})
	}
}
