package control

import (
	"math"
	"testing"

	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

func newSimLoop(t *testing.T, pol policy.Policy) *Loop {
	return newSimLoopReset(t, pol, 0)
}

// TestIdleHorizonDisarmsOnChurn: a mix change (ReplaceJob) and a
// membership change (AddJob) must each disarm IdleHorizon for at least
// stableTicks observed intervals, and the promise must re-arm after.
func TestIdleHorizonDisarmsOnChurn(t *testing.T) {
	loop := newSimLoop(t, policy.Static{})
	warmUntilArmed := func(label string) {
		t.Helper()
		for i := 0; i < 300; i++ {
			if _, err := loop.Step(); err != nil {
				t.Fatal(err)
			}
			if loop.IdleHorizon() > 0 {
				return
			}
		}
		t.Fatalf("%s: no idle promise within 300 intervals", label)
	}
	expectDisarmed := func(label string) {
		t.Helper()
		for i := 0; i < stableTicks; i++ {
			if h := loop.IdleHorizon(); h != 0 {
				t.Fatalf("%s: IdleHorizon %d after %d ticks; want 0 for %d ticks", label, h, i, stableTicks)
			}
			if _, err := loop.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	warmUntilArmed("initial")
	if err := loop.ReplaceJob(0, workloads.PARSEC()[4]); err != nil {
		t.Fatal(err)
	}
	expectDisarmed("mix change")
	warmUntilArmed("after mix change")
	if err := loop.AddJob(workloads.PARSEC()[5]); err != nil {
		t.Fatal(err)
	}
	expectDisarmed("job arrival")
	warmUntilArmed("after job arrival")
}

// corruptPlatform injects a corrupt observation every badEvery samples,
// modeling a wedged hardware counter or a torn resctrl read.
type corruptPlatform struct {
	*rdt.SimPlatform
	badEvery int
	badValue float64
	calls    int
}

func (c *corruptPlatform) Sample() ([]float64, error) {
	ips, err := c.SimPlatform.Sample()
	c.calls++
	if err == nil && c.badEvery > 0 && c.calls%c.badEvery == 0 && len(ips) > 0 {
		ips[0] = c.badValue
	}
	return ips, err
}

// countingPolicy counts Decide calls while holding the configuration.
type countingPolicy struct{ decides int }

func (p *countingPolicy) Name() string { return "counting" }
func (p *countingPolicy) Decide(_ policy.Observation, cur resource.Config) resource.Config {
	p.decides++
	return cur
}

// TestBadSampleRejected: non-finite or negative IPS must be flagged and
// skipped — no metric accumulation, no policy consultation, configuration
// held — instead of silently poisoning the run aggregates.
func TestBadSampleRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), -3.5} {
		profiles := workloads.PARSEC()[:2]
		simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := rdt.NewSimPlatform(simulator)
		if err != nil {
			t.Fatal(err)
		}
		cp := &corruptPlatform{SimPlatform: sp, badEvery: 10, badValue: bad}
		pol := &countingPolicy{}
		loop, err := New(Options{
			Platform: cp,
			Policy:   func(rdt.Platform) (policy.Policy, error) { return pol, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		const ticks = 50
		badTicks := 0
		for i := 0; i < ticks; i++ {
			st, err := loop.Step()
			if err != nil {
				t.Fatal(err)
			}
			if st.Held == HeldSampleCorrupt {
				badTicks++
				if !st.Config.Equal(loop.current) {
					t.Fatal("bad sample changed the configuration")
				}
			} else if math.IsNaN(st.Throughput) || st.Throughput < 0 {
				t.Fatalf("bad=%v: corrupt observation leaked into scores: %v", bad, st.Throughput)
			}
		}
		sum := loop.Summary()
		if want := ticks / 10; badTicks != want || sum.BadSamples != want {
			t.Fatalf("bad=%v: flagged %d ticks, summary %d, want %d", bad, badTicks, sum.BadSamples, want)
		}
		if pol.decides != ticks-badTicks {
			t.Fatalf("bad=%v: policy consulted %d times, want %d (bad ticks skipped)", bad, pol.decides, ticks-badTicks)
		}
		if math.IsNaN(sum.MeanThroughput) || math.IsNaN(sum.MeanFairness) {
			t.Fatalf("bad=%v: summary aggregates poisoned: %+v", bad, sum)
		}
	}
}
