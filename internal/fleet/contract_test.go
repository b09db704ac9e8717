package fleet

import (
	"testing"

	"satori/internal/policy"
	"satori/internal/policy/policytest"
)

// TestFleetUnderScribblingPolicy holds the fleet to policy.Policy's
// contract: with every node's SATORI engine wrapped so that each Decide
// overwrites the previous decision (policytest.Scribble), a 24-node,
// four-shard, event-driven fleet with churn must write the per-tick series
// and summary of the unwrapped fleet, at one worker and at four.
func TestFleetUnderScribblingPolicy(t *testing.T) {
	run := func(workers int, wrap bool) (string, string) {
		t.Helper()
		opt := Options{
			Nodes: 24, Shards: 4, EventDriven: true, Seed: 3, Workers: workers,
			Stream: StreamOptions{ArrivalRate: 4, DurationMean: 12, DurationMin: 2, DurationMax: 40},
		}
		if wrap {
			opt.WrapPolicy = func(_ int, p policy.Policy) policy.Policy { return policytest.Scribble(p) }
		}
		c, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(250); err != nil {
			t.Fatal(err)
		}
		return seriesCSV(t, c), c.Summary().String()
	}
	want, wantSum := run(1, false)
	t.Logf("unwrapped: %s", wantSum)
	for _, workers := range []int{1, 4} {
		got, gotSum := run(workers, true)
		if got != want || gotSum != wantSum {
			t.Fatalf("workers=%d: the scribbled fleet differs from the unwrapped one: %s, unwrapped %s", workers, gotSum, wantSum)
		}
	}
}
