package harness

import (
	"fmt"
	"testing"

	"satori/internal/core"
	"satori/internal/policy"
	"satori/internal/policy/policytest"
	"satori/internal/rdt"
)

// TestRunUnderScribblingPolicy holds Run to policy.Policy's contract: a
// SATORI engine wrapped so that every Decide overwrites its previous
// decision (policytest.Scribble) must give the unwrapped engine's result,
// the applied partitions' distances to the Balanced Oracle included.
func TestRunUnderScribblingPolicy(t *testing.T) {
	satori := SatoriFactory(core.Options{})
	run := func(f PolicyFactory) string {
		t.Helper()
		spec := smokeSpec(t, f)
		spec.Ticks = 300
		spec.TrackOracleDistance = true
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", *res)
	}
	want := run(satori)
	got := run(func(p *rdt.SimPlatform, seed uint64) (policy.Policy, error) {
		pol, err := satori(p, seed)
		if err != nil {
			return nil, err
		}
		return policytest.Scribble(pol), nil
	})
	if got != want {
		t.Fatalf("under the scribbling wrapper\n%s\nunwrapped\n%s", got, want)
	}
}
