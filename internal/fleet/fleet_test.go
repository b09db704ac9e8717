package fleet

import (
	"bytes"
	"strings"
	"testing"
)

// testOptions is a churn-heavy small fleet: jobs arrive every ~2s and
// stay ~8s, so a 200-tick run exercises arrivals, departures, node
// boot/teardown and queuing.
func testOptions(workers int) Options {
	return Options{
		Nodes:   4,
		Seed:    42,
		Workers: workers,
		Stream: StreamOptions{
			ArrivalRate:  0.5,
			DurationMean: 8,
			DurationMin:  2,
			DurationMax:  20,
		},
	}
}

func runCSV(t *testing.T, opt Options, ticks int) string {
	t.Helper()
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ticks); err != nil {
		t.Fatal(err)
	}
	return seriesCSV(t, c)
}

// seriesCSV renders the cluster's per-tick trace.
func seriesCSV(t *testing.T, c *Cluster) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Series().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDeterminismAcrossWorkers is the fleet's core invariant (and the
// PR's acceptance criterion): any worker count produces byte-identical
// per-tick output — parallelism only changes wall-clock time.
func TestDeterminismAcrossWorkers(t *testing.T) {
	serial := runCSV(t, testOptions(1), 200)
	for _, workers := range []int{2, 4, 8} {
		if got := runCSV(t, testOptions(workers), 200); got != serial {
			t.Fatalf("workers=%d output differs from serial", workers)
		}
	}
	if !strings.Contains(serial, "sumips") {
		t.Fatalf("CSV missing header: %q", serial[:80])
	}
}

// TestDeterminismAcrossRuns replays the same seed twice.
func TestDeterminismAcrossRuns(t *testing.T) {
	a := runCSV(t, testOptions(0), 150)
	b := runCSV(t, testOptions(0), 150)
	if a != b {
		t.Fatal("same seed, different output")
	}
}

// TestSeedChangesRun guards against the seed being ignored.
func TestSeedChangesRun(t *testing.T) {
	a := runCSV(t, testOptions(1), 150)
	opt := testOptions(1)
	opt.Seed = 43
	if b := runCSV(t, opt, 150); a == b {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestChurnBookkeeping runs long enough for full job lifecycles and
// checks the conservation law arrived = departed + running + queued.
func TestChurnBookkeeping(t *testing.T) {
	c, err := New(testOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(400); err != nil {
		t.Fatal(err)
	}
	s := c.Summary()
	if s.Arrived == 0 || s.Departed == 0 {
		t.Fatalf("expected churn, got %+v", s)
	}
	if s.Arrived != s.Departed+s.Running+s.Queued {
		t.Fatalf("job conservation violated: %+v", s)
	}
	if s.Placed != s.Departed+s.Running {
		t.Fatalf("placement conservation violated: %+v", s)
	}
	if s.MeanJain <= 0 || s.MeanJain > 1 {
		t.Fatalf("Jain out of range: %+v", s)
	}
}

// TestQueueingWhenSaturated floods a single tiny node and checks jobs
// wait in FIFO order instead of being dropped or over-admitted.
func TestQueueingWhenSaturated(t *testing.T) {
	opt := Options{
		Nodes:          1,
		Seed:           7,
		Workers:        1,
		MaxJobsPerNode: 2,
		Stream: StreamOptions{
			ArrivalRate:  2,
			DurationMean: 1000, // effectively immortal jobs
			DurationMin:  1000,
			DurationMax:  1000,
		},
	}
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	s := c.Summary()
	if s.Running != 2 {
		t.Fatalf("node over/under-admitted: running=%d want 2", s.Running)
	}
	if s.Queued == 0 {
		t.Fatal("expected a backlog on a saturated node")
	}
	if s.Arrived != s.Running+s.Queued {
		t.Fatalf("lost jobs: %+v", s)
	}
}

// TestPlacersProduceValidRuns exercises every registered placer on the
// same churn and verifies the admission invariants hold.
func TestPlacersProduceValidRuns(t *testing.T) {
	for _, name := range PlacerNames() {
		opt := testOptions(0)
		opt.Placer = name
		c, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(250); err != nil {
			t.Fatalf("placer %s: %v", name, err)
		}
		s := c.Summary()
		if s.Arrived != s.Departed+s.Running+s.Queued {
			t.Fatalf("placer %s: job conservation violated: %+v", name, s)
		}
	}
}

// TestPoliciesOnFleet runs a cheap baseline policy per node to confirm
// the registry plumbs through the fleet.
func TestPoliciesOnFleet(t *testing.T) {
	for _, policy := range []string{"random", "static", "parties"} {
		opt := testOptions(0)
		opt.Policy = policy
		c, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(100); err != nil {
			t.Fatalf("policy %s: %v", policy, err)
		}
	}
}

func TestUnknownNamesError(t *testing.T) {
	opt := testOptions(1)
	opt.Placer = "nope"
	if _, err := New(opt); err == nil || !strings.Contains(err.Error(), "fairness") {
		t.Fatalf("want placer error listing valid names, got %v", err)
	}
	opt = testOptions(1)
	opt.Policy = "nope"
	if _, err := New(opt); err == nil || !strings.Contains(err.Error(), "satori") {
		t.Fatalf("want policy error listing valid names, got %v", err)
	}
}

// TestStreamDeterminism draws two streams from one seed and compares
// every field of every arrival.
func TestStreamDeterminism(t *testing.T) {
	mk := func() *JobStream {
		s, err := NewJobStream(StreamOptions{Seed: 9, ArrivalRate: 1, DurationMean: 10})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	ja, jb := a.ArrivalsUntil(100), b.ArrivalsUntil(100)
	if len(ja) == 0 || len(ja) != len(jb) {
		t.Fatalf("arrival counts differ: %d vs %d", len(ja), len(jb))
	}
	for i := range ja {
		if ja[i].Arrival != jb[i].Arrival || ja[i].Duration != jb[i].Duration ||
			ja[i].Profile.Name != jb[i].Profile.Name || ja[i].ID != jb[i].ID {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, ja[i], jb[i])
		}
		if ja[i].Duration < 5 || ja[i].Duration > 120 {
			t.Fatalf("duration %g outside default bounds", ja[i].Duration)
		}
	}
}

// TestFairnessAwareProtectsDepressedNode: node 0 is lighter but its jobs
// already run at 0.3x; crushing them further (and adding a 0.33x
// newcomer next to 0.9x jobs) widens the speedup spread, while placing
// on node 1 drags the high-flyers toward the strugglers and equalizes.
// The fairness placer must pick node 1 where least-loaded picks node 0.
func TestFairnessAwareProtectsDepressedNode(t *testing.T) {
	views := []NodeView{
		{ID: 0, Jobs: 2, Capacity: 5, Cores: 10, Speedups: []float64{0.3, 0.3}},
		{ID: 1, Jobs: 3, Capacity: 5, Cores: 10, Speedups: []float64{0.9, 0.9, 0.9}},
	}
	if got := (LeastLoadedCores{}).Place(&Job{}, views); got != 0 {
		t.Fatalf("least-loaded chose node %d, want lighter node 0", got)
	}
	if got := (FairnessAware{}).Place(&Job{}, views); got != 1 {
		t.Fatalf("fairness placer chose node %d, want Jain-maximizing node 1", got)
	}
	// Spot-check the prediction math on candidate 1: residents scale by
	// k/(k+1), the newcomer gets 1/(k+1), Jain = (Σs)²/(n·Σs²).
	got := predictedJain(views, 1)
	want := 529.0 / 618.0 // [0.3 0.3 0.675 0.675 0.675 0.25] exactly
	if diff := got - want; diff < -1e-5 || diff > 1e-5 {
		t.Fatalf("predictedJain = %v, want %v", got, want)
	}
}

func TestLeastLoadedCores(t *testing.T) {
	views := []NodeView{
		{ID: 0, Jobs: 4, Capacity: 5, Cores: 10},
		{ID: 1, Jobs: 2, Capacity: 5, Cores: 10},
		{ID: 2, Jobs: 5, Capacity: 5, Cores: 10}, // full
	}
	if got := (LeastLoadedCores{}).Place(&Job{}, views); got != 1 {
		t.Fatalf("least-loaded chose %d, want 1", got)
	}
}

func TestRoundRobinSkipsFullNodes(t *testing.T) {
	rr := &RoundRobin{}
	views := []NodeView{
		{ID: 0, Jobs: 0, Capacity: 1, Cores: 10},
		{ID: 1, Jobs: 1, Capacity: 1, Cores: 10}, // full
		{ID: 2, Jobs: 0, Capacity: 1, Cores: 10},
	}
	if got := rr.Place(&Job{}, views); got != 0 {
		t.Fatalf("first placement on %d, want 0", got)
	}
	views[0].Jobs = 1
	if got := rr.Place(&Job{}, views); got != 2 {
		t.Fatalf("second placement on %d, want 2 (skip full node 1)", got)
	}
	views[2].Jobs = 1
	if got := rr.Place(&Job{}, views); got != -1 {
		t.Fatalf("placement on full fleet returned %d, want -1", got)
	}
}

// TestFairnessAwareDegenerateTieBreaksByLoad is the degenerate-scoring
// bugfix regression: when every reported speedup is zero (fully stalled
// fleet), the predicted Jain is identical for every candidate — the
// newcomer's share dominates a sum of zeros — and the pre-fix argmax
// silently collapsed to lowest-index packing. The placer must spread by
// load instead.
func TestFairnessAwareDegenerateTieBreaksByLoad(t *testing.T) {
	views := []NodeView{
		{ID: 0, Jobs: 3, Capacity: 5, Cores: 10, Speedups: []float64{0, 0, 0}},
		{ID: 1, Jobs: 1, Capacity: 5, Cores: 10, Speedups: []float64{0}},
	}
	// The predictions really do tie (both 0.2 here), so only the
	// tie-break can separate the candidates.
	j0, j1 := predictedJain(views, 0), predictedJain(views, 1)
	if d := j0 - j1; d < -1e-12 || d > 1e-12 {
		t.Fatalf("degenerate predictions did not tie: %v vs %v", j0, j1)
	}
	if got := (FairnessAware{}).Place(&Job{}, views); got != 1 {
		t.Fatalf("fairness placer chose node %d under degenerate scoring, want less-loaded node 1", got)
	}
	// An all-empty fleet ties every candidate at 1; the load tie-break
	// (equal loads) keeps the lowest index.
	if got := (FairnessAware{}).Place(&Job{}, []NodeView{
		{ID: 0, Jobs: 0, Capacity: 5, Cores: 10},
		{ID: 1, Jobs: 0, Capacity: 5, Cores: 10},
	}); got != 0 {
		t.Fatalf("empty-fleet tie broke to node %d, want 0", got)
	}
	// The non-degenerate path is untouched: strictly better Jain still
	// wins regardless of load.
	if got := (FairnessAware{}).Place(&Job{}, []NodeView{
		{ID: 0, Jobs: 2, Capacity: 5, Cores: 10, Speedups: []float64{0.3, 0.3}},
		{ID: 1, Jobs: 3, Capacity: 5, Cores: 10, Speedups: []float64{0.9, 0.9, 0.9}},
	}); got != 1 {
		t.Fatalf("fairness placer chose node %d, want Jain-maximizing node 1", got)
	}
}
