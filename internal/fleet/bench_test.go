package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"satori/internal/sim"
)

// BenchmarkFleetTick measures one lockstep fleet tick across cluster
// sizes and worker counts. The workers=N rows should beat workers=1 at
// the same node count once nodes > 1 (the acceptance bar is >2x at
// 8 nodes / 8 workers). Run with:
//
//	go test -bench FleetTick -benchtime 2s ./internal/fleet
func BenchmarkFleetTick(b *testing.B) {
	for _, cfg := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 4}, {8, 1}, {8, 8}} {
		nodes, workers := cfg[0], cfg[1]
		name := fmt.Sprintf("nodes=%d/workers=%d", nodes, workers)
		b.Run(name, func(b *testing.B) {
			opt := Options{
				Nodes:   nodes,
				Seed:    42,
				Workers: workers,
				Stream: StreamOptions{
					// Heavy arrivals so every node carries jobs and the
					// tick cost is dominated by engine work, not churn.
					ArrivalRate:  float64(nodes) * 2,
					DurationMean: 1e6,
					DurationMin:  1e6,
					DurationMax:  1e6,
				},
			}
			c, err := New(opt)
			if err != nil {
				b.Fatal(err)
			}
			// Warm up until every node is saturated, so the steady
			// state being measured has maximal per-tick engine work.
			if _, err := c.Run(60); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchProfile builds a single-phase synthetic workload whose phase
// length (in ticks) controls how extrapolation-friendly the fleet is:
// short phases cross a boundary almost every tick (no node ever earns an
// idle promise), long phases make nodes phase-stable for thousands of
// ticks (the event-driven best case).
func benchProfile(name string, instructions float64) *sim.Profile {
	return &sim.Profile{
		Name: name, Suite: "bench",
		Phases: []sim.Phase{{
			Name: "steady", Instructions: instructions, IPSPeak: 2e10,
			SerialFrac: 0.05, MPIMax: 0.012, MPIMin: 0.004,
			WaysHalf: 2.5, MemStallCost: 180, PowerSensitivity: 0.6,
		}},
	}
}

// benchFleetScale builds a large fleet, bursts one job per node into it
// (slots per node is the co-location cap), waits until placement settles
// (and, for event-driven runs, until idle promises arm), then measures
// steady-state Step cost. The active/idle pair at equal size is the
// event-driven core's acceptance metric: per-tick cost must track activity,
// not fleet size. Those rows run parties so that a tick costs sim + control
// and no proxy model whichever node happens to hold two jobs; the OneJob
// pair below holds the default policy to the same floor where it owes it —
// on nodes with nothing to decide.
func benchFleetScale(b *testing.B, nodes int, policy string, slots int, eventDriven bool, instructions float64) {
	b.Helper()
	profile := benchProfile("bench", instructions)
	opt := Options{
		Nodes:          nodes,
		Seed:           42,
		Workers:        0,
		Policy:         policy,
		MaxJobsPerNode: slots,
		Shards:         64,
		EventDriven:    eventDriven,
		Stream: StreamOptions{
			ArrivalRate:  float64(nodes) * 100, // one burst fills the fleet
			MaxJobs:      nodes,
			DurationMean: 1e7, // immortal: zero churn in steady state
			DurationMin:  1e7,
			DurationMax:  1e7,
			Profiles:     []*sim.Profile{profile},
		},
	}
	c, err := New(opt)
	if err != nil {
		b.Fatal(err)
	}
	// A few percent of the burst can stay queued behind a full shard
	// (hash-routing imbalance — the POP quality trade); the stranded set
	// is a pure function of the seed, so active and idle runs at equal
	// size measure the identical busy-node layout.
	for i := 0; i < 80; i++ {
		if _, err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
	if s := c.Summary(); s.Placed < nodes*8/10 {
		b.Fatalf("warmup placed only %d of %d burst jobs: %+v", s.Placed, nodes, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if eventDriven {
		s := c.Summary()
		if s.SkippedNodeTicks == 0 {
			b.Fatal("event-driven benchmark never skipped a node tick — measuring nothing")
		}
		b.ReportMetric(float64(s.SkippedNodeTicks)/float64(s.Ticks), "skipped-nodes/tick")
	}
}

// Short phases: ~1.2 ticks per phase, every node crosses boundaries
// continuously, so every tick is a detailed tick even in event-driven
// mode. This is the all-active upper bound.
const benchActiveInstr = 2.5e9

// Long phases: ~50k ticks per phase; nodes are phase-stable and spend
// equalization-period-bounded runs on idle promises. This is the idle-heavy case.
const benchIdleInstr = 1e14

func BenchmarkFleetTick100Active(b *testing.B) {
	benchFleetScale(b, 100, "parties", 2, true, benchActiveInstr)
}
func BenchmarkFleetTick100Idle(b *testing.B) {
	benchFleetScale(b, 100, "parties", 2, true, benchIdleInstr)
}
func BenchmarkFleetTick10kActive(b *testing.B) {
	benchFleetScale(b, 10000, "parties", 2, true, benchActiveInstr)
}
func BenchmarkFleetTick10kIdle(b *testing.B) {
	benchFleetScale(b, 10000, "parties", 2, true, benchIdleInstr)
}

// The sparse fleet's floor: one slot per node, so every node runs at most
// one job and its search space is a single configuration, and short phases,
// so every node-tick is a detailed one that reaches the policy. The CI gate
// on this pair, run serially, keeps a satori node-tick within 1.25x of a
// parties one.
func BenchmarkFleetTick1kOneJobParties(b *testing.B) {
	benchFleetScale(b, 1000, "parties", 1, false, benchActiveInstr)
}
func BenchmarkFleetTick1kOneJobSatori(b *testing.B) {
	benchFleetScale(b, 1000, "satori", 1, false, benchActiveInstr)
}

// BenchmarkFleetHeapSatori2k is what a SATORI fleet holds between its
// ticks, per node, at 2 000 nodes of four slots: satori, immortal jobs of
// short phases (every node decides every tick), 64 shards, event-driven.
// One op builds the fleet, fills it in one burst and runs 300 ticks,
// counting the allocations of the last 100; after a forced collection it
// reports the live heap and objects per node, and the allocations per
// fleet tick. Its ≈ 190 MB make it a one-iteration run:
//
//	go test -run - -bench FleetHeapSatori2k -benchtime 1x ./internal/fleet
func BenchmarkFleetHeapSatori2k(b *testing.B) {
	const nodes, slots, ticks, counted = 2000, 4, 300, 100
	var kb, objects, allocs float64
	for range b.N {
		c, err := New(Options{
			Nodes:          nodes,
			Seed:           42,
			Policy:         "satori",
			MaxJobsPerNode: slots,
			Shards:         64,
			EventDriven:    true,
			Stream: StreamOptions{
				ArrivalRate:  float64(nodes*slots) * 100, // one burst fills the fleet
				MaxJobs:      nodes * slots,
				DurationMean: 1e7, // immortal
				DurationMin:  1e7,
				DurationMax:  1e7,
				Profiles:     []*sim.Profile{benchProfile("bench", benchActiveInstr)},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		var before, after, live runtime.MemStats
		for tick := range ticks {
			if tick == ticks-counted {
				runtime.ReadMemStats(&before)
			}
			if _, err := c.Step(); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if s := c.Summary(); s.Placed < nodes*slots*8/10 {
			b.Fatalf("placed only %d of %d burst jobs: %+v", s.Placed, nodes*slots, s)
		}
		runtime.GC()
		runtime.ReadMemStats(&live)
		kb = float64(live.HeapAlloc) / 1024 / nodes
		objects = float64(live.HeapObjects) / nodes
		allocs = float64(after.Mallocs-before.Mallocs) / counted
		runtime.KeepAlive(c)
	}
	b.ReportMetric(kb, "KB/node")
	b.ReportMetric(objects, "objects/node")
	b.ReportMetric(allocs, "allocs/tick")
}
