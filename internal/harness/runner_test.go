package harness

import (
	"math"
	"testing"

	"satori/internal/core"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/workloads"
)

func smokeSpec(t *testing.T, factory PolicyFactory) RunSpec {
	t.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSuiteBase(7, 120)
	spec.Profiles = mixes[0].Profiles
	spec.Policy = factory
	return spec
}

func TestRunValidatesSpec(t *testing.T) {
	if _, err := Run(RunSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	spec := smokeSpec(t, SatoriFactory(core.Options{}))
	spec.Profiles = nil
	if _, err := Run(spec); err == nil {
		t.Error("spec without profiles accepted")
	}
}

func TestRunProducesSaneAggregates(t *testing.T) {
	res, err := Run(smokeSpec(t, SatoriFactory(core.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "satori" {
		t.Errorf("policy name %q", res.PolicyName)
	}
	if res.Ticks != 120 {
		t.Errorf("Ticks = %d", res.Ticks)
	}
	for name, v := range map[string]float64{
		"throughput": res.MeanThroughput,
		"fairness":   res.MeanFairness,
		"objective":  res.MeanObjective,
		"worst":      res.MeanWorstSpeedup,
	} {
		if v <= 0 || v > 1 {
			t.Errorf("%s = %g out of (0, 1]", name, v)
		}
	}
	if res.Trace != nil {
		t.Error("trace retained without KeepTrace")
	}
	if res.Applies <= 0 {
		t.Error("no configurations were ever applied")
	}
}

func TestRunTraceColumns(t *testing.T) {
	spec := smokeSpec(t, SatoriFactory(core.Options{}))
	spec.KeepTrace = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Column("tick")) != 120 {
		t.Fatal("trace missing or wrong length")
	}
	// SATORI runs include the weight instrumentation columns.
	for _, col := range []string{"tick", "throughput", "fairness", "wT", "wF", "satobj", "proxychange"} {
		vals := res.Trace.Column(col)
		if len(vals) != 120 {
			t.Errorf("column %s has %d values", col, len(vals))
		}
	}
	// Weights must pair to 1 at every tick.
	wT := res.Trace.Column("wT")
	wF := res.Trace.Column("wF")
	for i := range wT {
		if d := wT[i] + wF[i] - 1; d > 1e-9 || d < -1e-9 {
			t.Fatalf("tick %d: wT+wF = %g", i, wT[i]+wF[i])
		}
	}
}

func TestRunWithoutWeightReporterOmitsColumns(t *testing.T) {
	spec := smokeSpec(t, onSim(random))
	spec.KeepTrace = true
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("random-policy trace should not have weight columns")
		}
	}()
	res.Trace.Column("wT")
}

func TestRunOracleDistanceTracking(t *testing.T) {
	spec := smokeSpec(t, onSim(PARTIES))
	spec.TrackOracleDistance = true
	spec.KeepTrace = true
	spec.Ticks = 60
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanOracleDistance <= 0 {
		t.Errorf("MeanOracleDistance = %g, want > 0", res.MeanOracleDistance)
	}
	dist := res.Trace.Column("oracledist")
	if len(dist) != 60 {
		t.Fatalf("oracledist column has %d values", len(dist))
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, err := Run(smokeSpec(t, SatoriFactory(core.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smokeSpec(t, SatoriFactory(core.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanThroughput != b.MeanThroughput || a.MeanFairness != b.MeanFairness {
		t.Error("identical specs produced different results")
	}
}

func TestAllFactoriesRun(t *testing.T) {
	for _, nf := range CompetingPolicies() {
		res, err := Run(smokeSpec(t, nf.Factory))
		if err != nil {
			t.Fatalf("%s: %v", nf.Name, err)
		}
		if res.MeanThroughput <= 0 {
			t.Errorf("%s produced zero throughput", nf.Name)
		}
	}
	for _, f := range []PolicyFactory{
		SatoriStaticFactory(1), SatoriStaticFactory(0), onSim(Static),
	} {
		if _, err := Run(smokeSpec(t, f)); err != nil {
			t.Fatal(err)
		}
	}
}

// brokenPolicy alternates between an invalid configuration (nil Alloc —
// the platform must reject it) and holding the current one.
type brokenPolicy struct{ tick int }

func (b *brokenPolicy) Name() string { return "broken" }

func (b *brokenPolicy) Decide(_ policy.Observation, current resource.Config) resource.Config {
	b.tick++
	if b.tick%2 == 0 {
		return resource.Config{} // invalid: no allocation matrix
	}
	return current
}

// TestRejectedAppliesSurfaced is the regression test for the swallowed
// platform.Apply error: a policy emitting invalid configurations used to
// be indistinguishable from one that deliberately holds. The rejection
// count must now be visible in Result.
func TestRejectedAppliesSurfaced(t *testing.T) {
	spec := smokeSpec(t, func(*rdt.SimPlatform, uint64) (policy.Policy, error) {
		return &brokenPolicy{}, nil
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectedApplies != 60 {
		t.Errorf("RejectedApplies = %d, want 60 (every second tick of 120)", res.RejectedApplies)
	}
	// A well-behaved policy must report zero rejections.
	res, err = Run(smokeSpec(t, SatoriFactory(core.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectedApplies != 0 {
		t.Errorf("healthy policy has RejectedApplies = %d", res.RejectedApplies)
	}
}

// A transient baseline-refresh failure must not abort the experiment:
// the run completes, and Result counts the survived refresh failures.
func TestRunSurvivesTransientResetFailure(t *testing.T) {
	spec := smokeSpec(t, SatoriFactory(core.Options{}))
	spec.Ticks = 120
	// MeasureIsolated call 1 is the initial baseline; call 2 is the
	// tick-100 refresh. Repeat 3 outlasts the loop's default 2 retries,
	// so the refresh fails for the tick and the stale baselines hold.
	spec.Faults = &rdt.FaultScript{Faults: []rdt.Fault{
		{Op: rdt.OpMeasureIsolated, Kind: rdt.FaultError, Call: 2, Repeat: 3},
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("transient reset failure aborted the run: %v", err)
	}
	if res.Ticks != 120 {
		t.Errorf("Ticks = %d, want 120", res.Ticks)
	}
	if res.TransientResets != 1 {
		t.Errorf("TransientResets = %d, want 1", res.TransientResets)
	}
	// Fault-free runs report zero.
	clean, err := Run(smokeSpec(t, SatoriFactory(core.Options{})))
	if err != nil {
		t.Fatal(err)
	}
	if clean.TransientResets != 0 {
		t.Errorf("clean run has TransientResets = %d", clean.TransientResets)
	}
}

// Run must survive every kind of held tick — a sample dropout, a corrupt
// reading, a rejected apply — in one script: the first two carry no
// speedups and stay out of the worst-job mean (Run used to recompute
// them from the nil IPS and panic), the third was scored and counts. The
// clustered policy rides along: built through Bind on the injected
// platform, its grouping must still reach the simulator.
func TestRunSurvivesHeldTicks(t *testing.T) {
	var platform *rdt.SimPlatform
	clustered := ClusteredSatoriFactory(2, core.Options{})
	spec := smokeSpec(t, func(p *rdt.SimPlatform, seed uint64) (policy.Policy, error) {
		platform = p
		return clustered(p, seed)
	})
	spec.KeepTrace = true
	// Repeat 3 on the apply outlasts the loop's default 2 retries.
	script, err := rdt.ParseFaultScript("sample:error@20,sample:nan@40,apply:error@60x3")
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults = &script
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 120 || len(res.Trace.Column("tick")) != 120 || res.RejectedApplies != 1 {
		t.Fatalf("ticks=%d rows=%d rejected=%d, want 120, 120, 1", res.Ticks, len(res.Trace.Column("tick")), res.RejectedApplies)
	}
	var sum float64
	scored := 0
	for i, w := range res.Trace.Column("worst") {
		held := i+1 == 20 || i+1 == 40
		if held != (w == 0) {
			t.Errorf("tick %d: worst speedup %g (held=%v)", i+1, w, held)
		}
		if w > 0 {
			sum += w
			scored++
		}
	}
	if scored != 118 || math.Abs(res.MeanWorstSpeedup-sum/118) > 1e-12 {
		t.Errorf("MeanWorstSpeedup = %g over %d scored ticks, want %g over 118", res.MeanWorstSpeedup, scored, sum/118)
	}
	if got := len(platform.Plan().Jobs); got != 2 {
		t.Errorf("platform plan has %d control groups, want the policy's 2 clusters", got)
	}
}
