package fleet

import (
	"errors"
	"strings"
	"testing"

	"satori/internal/rdt"
)

// TestShardPartitionProperties pins the partition contract: every node
// lands in exactly one shard, shards are balanced within one node, hands
// are sorted ascending, the partition is a pure function of (seed, n, k),
// and k=1 is the identity layout.
func TestShardPartitionProperties(t *testing.T) {
	const n = 23
	for _, k := range []int{1, 4, 7, 23} {
		a, err := buildShards(99, n, k, "round-robin")
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildShards(99, n, k, "round-robin")
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]int)
		for si, s := range a {
			if len(s.nodes) < n/k || len(s.nodes) > n/k+1 {
				t.Errorf("k=%d shard %d holds %d nodes, want %d or %d", k, si, len(s.nodes), n/k, n/k+1)
			}
			for i, id := range s.nodes {
				seen[id]++
				if i > 0 && s.nodes[i-1] >= id {
					t.Errorf("k=%d shard %d not sorted ascending: %v", k, si, s.nodes)
				}
			}
			if bs := b[si]; len(bs.nodes) != len(s.nodes) {
				t.Errorf("k=%d shard %d: same seed gave different partitions", k, si)
			} else {
				for i := range s.nodes {
					if s.nodes[i] != bs.nodes[i] {
						t.Errorf("k=%d shard %d: same seed gave different partitions", k, si)
					}
				}
			}
		}
		if len(seen) != n {
			t.Errorf("k=%d: %d distinct nodes across shards, want %d", k, len(seen), n)
		}
		for id, count := range seen {
			if count != 1 {
				t.Errorf("k=%d: node %d appears in %d shards", k, id, count)
			}
		}
		if k == 1 {
			for i, id := range a[0].nodes {
				if id != i {
					t.Fatalf("k=1 shard is not the identity layout: %v", a[0].nodes)
				}
			}
		}
	}
}

// TestShardDeterminismAcrossWorkers is the tentpole's acceptance bar:
// sharded placement at any worker count is byte-identical to serial, for
// every registered placer, under churn, lockstep and event-driven.
func TestShardDeterminismAcrossWorkers(t *testing.T) {
	for _, placer := range PlacerNames() {
		for _, shards := range []int{1, 4} {
			for _, eventDriven := range []bool{false, true} {
				opt := testOptions(1)
				opt.Nodes = 8
				opt.Placer = placer
				opt.Shards = shards
				opt.EventDriven = eventDriven
				serial := runCSV(t, opt, 200)
				for _, workers := range []int{2, 8} {
					o := opt
					o.Workers = workers
					if got := runCSV(t, o, 200); got != serial {
						t.Fatalf("placer=%s shards=%d event-driven=%v workers=%d output differs from serial",
							placer, shards, eventDriven, workers)
					}
				}
			}
		}
	}
}

// TestShardCountChangesPlacement: different k produce different (but
// valid) placements, lockstep and event-driven: the per-tick trace at
// k = 2 and k = 4 is not the unsharded one, conservation holds at every k,
// and k is clamped to the node count.
func TestShardCountChangesPlacement(t *testing.T) {
	for _, eventDriven := range []bool{false, true} {
		baseline := ""
		for _, shards := range []int{1, 2, 4, 99} {
			opt := testOptions(0)
			opt.Nodes = 4
			opt.Shards = shards
			opt.EventDriven = eventDriven
			c, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			if shards == 99 && c.ShardCount() != 4 {
				t.Fatalf("Shards=99 on 4 nodes not clamped: %d", c.ShardCount())
			}
			if _, err := c.Run(300); err != nil {
				t.Fatal(err)
			}
			s := c.Summary()
			if s.Arrived != s.Departed+s.Running+s.Queued {
				t.Fatalf("event-driven=%v shards=%d: job conservation violated: %+v", eventDriven, shards, s)
			}
			csv := seriesCSV(t, c)
			switch shards {
			case 1:
				baseline = csv
			case 2, 4:
				if csv == baseline {
					t.Errorf("event-driven=%v: shards=%d traces the unsharded fleet byte for byte", eventDriven, shards)
				}
			}
		}
	}
}

// TestEventDrivenDeterminism: event-driven stepping keeps the worker- and
// run-level determinism contract, and a calm fleet actually skips ticks.
func TestEventDrivenDeterminism(t *testing.T) {
	opt := testOptions(1)
	opt.EventDriven = true
	serial := runCSV(t, opt, 200)
	for _, workers := range []int{2, 4} {
		o := opt
		o.Workers = workers
		if got := runCSV(t, o, 200); got != serial {
			t.Fatalf("event-driven workers=%d output differs from serial", workers)
		}
	}
	o := opt
	o.Workers = 0
	if got := runCSV(t, o, 200); got != serial {
		t.Fatal("event-driven same-seed replay diverged")
	}
}

// TestEventDrivenSkipsAndConserves: with a phase-stable policy the fleet
// defers node ticks on idle promises, while churn bookkeeping stays
// exact (promises are flushed before any membership change).
func TestEventDrivenSkipsAndConserves(t *testing.T) {
	opt := testOptions(1)
	opt.Policy = "static" // holds the partition: nodes go phase-stable
	eventDrivenSkipsAndConserves(t, opt)
}

// eventDrivenSkipsAndConserves holds opt's fleet, stepped event-driven, to
// the equivalence with lockstep stepping: it must skip node ticks where
// lockstep skips none, and conserve jobs and placements exactly.
func eventDrivenSkipsAndConserves(t *testing.T, opt Options) {
	t.Helper()
	lockstep := opt
	opt.EventDriven = true
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(400); err != nil {
		t.Fatal(err)
	}
	s := c.Summary()
	if s.SkippedNodeTicks == 0 {
		t.Fatal("event-driven calm fleet never skipped a node tick")
	}
	if s.Arrived == 0 || s.Departed == 0 {
		t.Fatalf("expected churn, got %+v", s)
	}
	if s.Arrived != s.Departed+s.Running+s.Queued {
		t.Fatalf("job conservation violated under event-driven stepping: %+v", s)
	}
	if s.Placed != s.Departed+s.Running {
		t.Fatalf("placement conservation violated: %+v", s)
	}
	lc, err := New(lockstep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Run(400); err != nil {
		t.Fatal(err)
	}
	if ls := lc.Summary(); ls.SkippedNodeTicks != 0 {
		t.Fatalf("lockstep fleet reported skipped ticks: %+v", ls)
	}
	t.Logf("event-driven: %d node-ticks skipped over %d ticks", s.SkippedNodeTicks, s.Ticks)
}

// sparseOptions is the trough-hours fleet: least-loaded placement onto one
// slot per node, so no node ever runs a second job and every node's engine
// (the default satori policy) searches a space of one configuration.
func sparseOptions(workers int) Options {
	opt := testOptions(workers)
	opt.Nodes = 12
	opt.Placer = "least-loaded"
	opt.MaxJobsPerNode = 1
	opt.Stream.ArrivalRate = 1
	return opt
}

// TestSparseFleetDeterminism puts the one-job-per-node fleet through the
// determinism contract of the busy one: byte-identical output for any worker
// count at every shard count in both stepping modes, same-seed replay, and
// the event-driven vs lockstep equivalence — with nothing to decide, a node
// holds its partition and earns idle promises under the searching policy.
func TestSparseFleetDeterminism(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, eventDriven := range []bool{false, true} {
			opt := sparseOptions(1)
			opt.Shards = shards
			opt.EventDriven = eventDriven
			serial := runCSV(t, opt, 200)
			for _, workers := range []int{4, 0} {
				o := opt
				o.Workers = workers
				if got := runCSV(t, o, 200); got != serial {
					t.Fatalf("shards=%d event-driven=%v workers=%d output differs from serial", shards, eventDriven, workers)
				}
			}
		}
	}
	eventDrivenSkipsAndConserves(t, sparseOptions(1))

	// The 10k-node trough fleet cmd/fleet documents (-nodes 10000 -shards 64
	// -event-driven -arrival-rate 50 -duration-mean 20 -seconds 10 -seed 42):
	// about 500 jobs round-robin over 10k nodes, so no node runs a second
	// job, no node has anything to decide, and the searching policy traces
	// the same fleet as parties.
	traces := map[string]string{}
	for _, policy := range []string{"satori", "parties"} {
		traces[policy] = runCSV(t, Options{
			Nodes: 10000, Shards: 64, EventDriven: true, Policy: policy, Seed: 42,
			Stream: StreamOptions{ArrivalRate: 50, DurationMean: 20},
		}, 100)
	}
	if traces["satori"] != traces["parties"] {
		t.Error("10k-node sparse fleet: satori and parties trace different fleets")
	}
}

// TestStepErrorTerminalAndAccounted is the partial-tick bugfix
// regression: when a node's step fails, the healthy nodes have already
// advanced, so the tick must still be accounted (counter + trace row)
// and the cluster must refuse to step again — the pre-fix code returned
// without incrementing c.ticks or recording the row, so a retrying
// caller double-stepped every healthy node.
func TestStepErrorTerminalAndAccounted(t *testing.T) {
	script, err := rdt.ParseFaultScript("sample:fatal@10")
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions(1)
	opt.Nodes = 2
	opt.Stream.ArrivalRate = 2
	opt.Stream.DurationMean = 1e6 // immortal: the faulted loop boots once
	opt.Stream.DurationMin = 1e6
	opt.Stream.DurationMax = 1e6
	opt.WrapPlatform = func(nodeID int, p rdt.Platform) rdt.Platform {
		if nodeID != 0 {
			return p
		}
		fp, err := rdt.NewFaultInjector(p, script)
		if err != nil {
			t.Errorf("NewFaultInjector: %v", err)
			return p
		}
		return fp
	}
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	var stepErr error
	for i := 0; i < 500; i++ {
		if _, err := c.Step(); err != nil {
			stepErr = err
			break
		}
		steps++
	}
	if stepErr == nil {
		t.Fatal("injected fatal sample fault never surfaced")
	}
	if errors.Is(stepErr, ErrHalted) {
		t.Fatalf("first failure already reported ErrHalted: %v", stepErr)
	}
	// The failed tick is accounted: counter advanced and row recorded.
	if got := c.ticks; got != steps+1 {
		t.Errorf("failed tick not accounted: Ticks()=%d after %d clean steps + 1 failed", got, steps)
	}
	if rows := len(c.Series().Column("tick")); rows != c.ticks {
		t.Errorf("trace desynced from tick counter: %d rows, %d ticks", rows, c.ticks)
	}
	// Terminal by contract: a retry cannot double-step healthy nodes.
	if _, err := c.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("second Step after failure = %v, want ErrHalted", err)
	}
	if got := c.ticks; got != steps+1 {
		t.Errorf("halted Step advanced the tick counter to %d", got)
	}
	if rows := len(c.Series().Column("tick")); rows != steps+1 {
		t.Errorf("halted Step recorded a row: %d", rows)
	}
	if !strings.Contains(stepErr.Error(), "fatal") {
		t.Errorf("error lost the injected cause: %v", stepErr)
	}
}
