package satori_test

import (
	"strings"
	"testing"

	"satori"
	"satori/internal/metrics"
)

func parsecJobs(t *testing.T, n int) []*satori.Workload {
	t.Helper()
	jobs, err := satori.Suite(satori.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	return jobs[:n]
}

func TestSessionValidation(t *testing.T) {
	if _, err := satori.NewSession(satori.SessionConfig{}); err == nil {
		t.Error("session without workloads accepted")
	}
}

func TestSessionLifecycle(t *testing.T) {
	sess, err := satori.NewSession(satori.SessionConfig{
		Workloads: parsecJobs(t, 5),
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := sess.JobNames()
	if len(names) != 5 || names[0] != "blackscholes" {
		t.Errorf("JobNames = %v", names)
	}
	if sess.SpaceInfo().Jobs != 5 {
		t.Error("space shape wrong")
	}
	st, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 1 || !st.BaselineReset {
		t.Errorf("first step: tick=%d reset=%v", st.Tick, st.BaselineReset)
	}
	if st.Throughput <= 0 || st.Throughput > 1 || st.Fairness <= 0 || st.Fairness > 1 {
		t.Errorf("scores out of range: T=%g F=%g", st.Throughput, st.Fairness)
	}
	if len(st.IPS) != 5 || len(st.Speedups) != 5 {
		t.Error("per-job vectors wrong length")
	}
	last, err := sess.Run(99)
	if err != nil {
		t.Fatal(err)
	}
	if last.Tick != 100 {
		t.Errorf("after Run(99): tick=%d", last.Tick)
	}
	sum := sess.Summary()
	if sum.Ticks != 100 || sum.MeanThroughput <= 0 || sum.MeanFairness <= 0 {
		t.Errorf("summary = %+v", sum)
	}
	if !strings.Contains(sum.String(), "throughput=") {
		t.Error("summary rendering wrong")
	}
}

func TestSessionBaselineResetSchedule(t *testing.T) {
	sess, err := satori.NewSession(satori.SessionConfig{
		Workloads:          parsecJobs(t, 3),
		BaselineResetTicks: 10,
		Seed:               4,
	})
	if err != nil {
		t.Fatal(err)
	}
	resets := 0
	for i := 0; i < 50; i++ {
		st, err := sess.Step()
		if err != nil {
			t.Fatal(err)
		}
		if st.BaselineReset {
			resets++
		}
	}
	// Tick 1 (initial) plus ticks 11, 21, 31, 41.
	if resets != 5 {
		t.Errorf("%d baseline resets in 50 ticks with period 10, want 5", resets)
	}
}

// Every registry name runs a plain-simulator session and yields throughput.
func TestSessionWithEveryNamedPolicy(t *testing.T) {
	jobs := parsecJobs(t, 3)
	for _, name := range satori.PolicyNames() {
		build, err := satori.NewPolicyByName(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := satori.NewSession(satori.SessionConfig{
			Workloads: jobs, Policy: build, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sess.Run(30); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if sess.Summary().MeanThroughput <= 0 {
			t.Errorf("%s produced no throughput", name)
		}
	}
}

func TestSatoriEngineIntrospection(t *testing.T) {
	sess, err := satori.NewSession(satori.SessionConfig{Workloads: parsecJobs(t, 3), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(50); err != nil {
		t.Fatal(err)
	}
	eng, ok := sess.Policy().(*satori.Engine)
	if !ok {
		t.Fatal("default session policy is not the SATORI engine")
	}
	w := eng.LastWeights()
	if w.T+w.F < 0.99 || w.T+w.F > 1.01 {
		t.Errorf("weights = %+v", w)
	}
	if eng.Records().Len() == 0 {
		t.Error("no records")
	}
}

func TestSuitesAndWorkloadLookup(t *testing.T) {
	for name, want := range map[string]int{
		satori.SuitePARSEC:     7,
		satori.SuiteCloudSuite: 5,
		satori.SuiteECP:        5,
	} {
		jobs, err := satori.Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != want {
			t.Errorf("%s has %d workloads, want %d", name, len(jobs), want)
		}
	}
	if _, err := satori.Suite("nope"); err == nil {
		t.Error("unknown suite accepted")
	}
	if w, err := satori.WorkloadByName("canneal"); err != nil || w.Name != "canneal" {
		t.Errorf("WorkloadByName: %v", err)
	}
	mixes, err := satori.PaperMixes(satori.SuitePARSEC)
	if err != nil || len(mixes) != 21 {
		t.Errorf("PaperMixes: %d, %v", len(mixes), err)
	}
}

func TestCustomMachineAndPowerResource(t *testing.T) {
	m := satori.DefaultMachine()
	m.PowerUnits = 8
	sess, err := satori.NewSession(satori.SessionConfig{
		Machine:   &m,
		Workloads: parsecJobs(t, 2),
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sess.SpaceInfo().Resources); got != 4 {
		t.Errorf("power-enabled space has %d resources", got)
	}
	if _, err := sess.Run(20); err != nil {
		t.Fatal(err)
	}
}

func TestMetricSelection(t *testing.T) {
	sess, err := satori.NewSession(satori.SessionConfig{
		Workloads:        parsecJobs(t, 3),
		ThroughputMetric: metrics.GeoMeanSpeedup,
		FairnessMetric:   metrics.OneMinusCoV,
		Seed:             8,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Step()
	if err != nil {
		t.Fatal(err)
	}
	if st.Throughput <= 0 || st.Throughput > 1 {
		t.Errorf("geomean throughput = %g", st.Throughput)
	}
}
