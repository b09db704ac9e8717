package harness

import (
	"testing"

	"satori/internal/core"
	"satori/internal/workloads"
)

func smokeSuite(t *testing.T) *SuiteResult {
	t.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite(SuiteSpec{
		Mixes: mixes[:2],
		Policies: []NamedFactory{
			{Name: "satori", Factory: SatoriFactory(core.Options{})},
			{Name: "random", Factory: onSim(random)},
		},
		Base: DefaultSuiteBase(3, 120),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSuiteValidation(t *testing.T) {
	if _, err := RunSuite(SuiteSpec{}); err == nil {
		t.Error("empty suite accepted")
	}
	mixes, _ := workloads.PaperMixes(workloads.SuitePARSEC)
	if _, err := RunSuite(SuiteSpec{Mixes: mixes[:1]}); err == nil {
		t.Error("suite without policies accepted")
	}
}

func TestSuiteScoresShape(t *testing.T) {
	res := smokeSuite(t)
	if len(res.Policies) != 2 {
		t.Fatalf("policies = %v", res.Policies)
	}
	if len(res.OracleRaw) != 2 {
		t.Fatalf("oracle refs = %d", len(res.OracleRaw))
	}
	for _, name := range res.Policies {
		scores := res.Scores[name]
		if len(scores) != 2 {
			t.Fatalf("%s has %d mix scores", name, len(scores))
		}
		for _, sc := range scores {
			if sc.PctThroughput <= 0 || sc.PctFairness <= 0 {
				t.Errorf("%s mix %d has non-positive scores", name, sc.MixIndex)
			}
			if len(sc.MixNames) != 5 {
				t.Errorf("mix names = %v", sc.MixNames)
			}
		}
	}
}

func TestSuiteMeansAndOrdering(t *testing.T) {
	res := smokeSuite(t)
	means := res.Means()
	if len(means) != 2 {
		t.Fatalf("means for %d policies", len(means))
	}
	// SATORI must beat Random even in a short smoke run.
	if means["satori"].PctThroughput <= means["random"].PctThroughput {
		t.Errorf("satori %.3f <= random %.3f on throughput",
			means["satori"].PctThroughput, means["random"].PctThroughput)
	}
	// Sorted views are sorted.
	sorted := res.SortedByPolicy("satori", "throughput")
	for i := 1; i < len(sorted); i++ {
		if sorted[i].PctThroughput < sorted[i-1].PctThroughput {
			t.Error("SortedByPolicy not ascending")
		}
	}
	sortedF := res.SortedByPolicy("satori", "fairness")
	for i := 1; i < len(sortedF); i++ {
		if sortedF[i].PctFairness < sortedF[i-1].PctFairness {
			t.Error("fairness sort not ascending")
		}
	}
	// MixOrder returns each mix exactly once.
	order := res.MixOrder("satori")
	seen := map[int]bool{}
	for _, idx := range order {
		if seen[idx] {
			t.Error("MixOrder repeated a mix")
		}
		seen[idx] = true
	}
	if len(order) != 2 {
		t.Errorf("MixOrder length %d", len(order))
	}
	if _, ok := res.ScoreFor("satori", order[0]); !ok {
		t.Error("ScoreFor missed an existing mix")
	}
	if _, ok := res.ScoreFor("satori", 999); ok {
		t.Error("ScoreFor found a non-existent mix")
	}
}

func TestDefaultMetricsArePaperDefaults(t *testing.T) {
	m := DefaultMetrics()
	if m.Throughput.String() != "sum-ips" || m.Fairness.String() != "jain" {
		t.Errorf("defaults = %s/%s", m.Throughput, m.Fairness)
	}
}
