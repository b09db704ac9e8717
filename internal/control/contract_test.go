package control

import (
	"fmt"
	"testing"

	"satori/internal/core"
	"satori/internal/policy"
	"satori/internal/policy/policytest"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// TestLoopUnderScribblingPolicy holds the loop to policy.Policy's contract:
// a decision is valid only until the next Decide call. A SATORI engine
// wrapped so that every Decide overwrites its previous decision
// (policytest.Scribble) must leave the loop with the decisions, outcomes
// and summary of the unwrapped engine, through a job arrival and a
// departure (the engine is rebuilt on the new space each time).
func TestLoopUnderScribblingPolicy(t *testing.T) {
	run := func(wrap bool) ([]string, Summary) {
		t.Helper()
		simulator, err := sim.New(sim.DefaultMachine(), workloads.PARSEC()[:4], sim.Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := rdt.NewSimPlatform(simulator)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := New(Options{Platform: sp, Policy: func(p rdt.Platform) (policy.Policy, error) {
			eng, err := core.New(p.Space(), core.Options{Seed: 5})
			if wrap && err == nil {
				return policytest.Scribble(eng), nil
			}
			return eng, err
		}})
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		for tick := 1; tick <= 400; tick++ {
			switch tick {
			case 150:
				err = loop.AddJob(workloads.PARSEC()[5])
			case 280:
				err = loop.RemoveJob(1)
			}
			if err != nil {
				t.Fatal(err)
			}
			st, err := loop.Step()
			if err != nil {
				t.Fatal(err)
			}
			trace = append(trace, fmt.Sprintf("%d %v %s %v %v", tick, st.Held, st.Config.Key(), st.Throughput, st.Fairness))
		}
		return trace, loop.Summary()
	}
	want, wantSum := run(false)
	got, gotSum := run(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tick %d under the scribbling wrapper: %s, unwrapped: %s", i+1, got[i], want[i])
		}
	}
	if gotSum != wantSum {
		t.Fatalf("summary under the scribbling wrapper %+v, unwrapped %+v", gotSum, wantSum)
	}
}
