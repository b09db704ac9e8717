package fleet

import (
	"errors"
	"fmt"
	"testing"

	"satori/internal/rdt"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// fleetRun is what one seeded fleet run leaves behind: the TickStats and
// the CSV trace of every accounted tick, the halting one included, the
// final Summary, and whether the injected fatal fault halted it.
type fleetRun struct {
	ticks  []TickStats
	csv    string
	sum    Summary
	halted bool
}

// runFleetOps steps opt's fleet for up to horizon ticks and holds every
// tick to the fleet's ledger laws: jobs and placements are conserved, the
// trace has one row per accounted tick, and — once a node has failed —
// every later Step is ErrHalted and accounts nothing. At the end Summary
// must equal the fold over the TickStats stream.
func runFleetOps(t *testing.T, name string, opt Options, horizon int) fleetRun {
	t.Helper()
	c, err := New(opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var run fleetRun
	for len(run.ticks) < horizon {
		st, err := c.Step()
		if c.ticks == len(run.ticks)+1 {
			run.ticks = append(run.ticks, st) // accounted, failed or not
		}
		s := c.Summary()
		if len(c.Series().Column("tick")) != c.ticks || s.Ticks != len(run.ticks) {
			t.Fatalf("%s: tick %d: %d rows, %d ticks, %d stats", name, st.Tick, len(c.Series().Column("tick")), c.ticks, len(run.ticks))
		}
		if s.Arrived != s.Departed+s.Running+s.Queued || s.Placed != s.Departed+s.Running ||
			s.Running != st.Running || s.Queued != st.Queued {
			t.Fatalf("%s: tick %d: conservation violated: %+v (tick reports %d running, %d queued)", name, st.Tick, s, st.Running, st.Queued)
		}
		if err == nil {
			continue
		}
		if errors.Is(err, ErrHalted) {
			t.Fatalf("%s: tick %d: the first failure already reports ErrHalted: %v", name, st.Tick, err)
		}
		run.halted = true
		for i := 0; i < 3; i++ {
			if _, err := c.Step(); !errors.Is(err, ErrHalted) {
				t.Fatalf("%s: Step %d after the fatal fault = %v, want ErrHalted", name, i+1, err)
			}
			if c.ticks != len(run.ticks) || len(c.Series().Column("tick")) != c.ticks {
				t.Fatalf("%s: a halted Step accounted a tick: %d ticks, %d rows, %d stats", name, c.ticks, len(c.Series().Column("tick")), len(run.ticks))
			}
		}
		break
	}
	run.csv = seriesCSV(t, c)
	run.sum = c.Summary()

	// The fold: everything Summary reports about the run so far, from the
	// stream alone (Running and Queued are the last tick's; Placed follows
	// from conservation, which every tick above already held).
	var sumIPS, geo, jain, attain stats.Welford
	var want Summary
	for _, st := range run.ticks {
		want.Ticks++
		want.Arrived += st.Arrivals
		want.Departed += st.Departures
		want.Running, want.Queued = st.Running, st.Queued
		want.MaxQueue = max(want.MaxQueue, st.Queued)
		if st.SumIPS > 0 {
			want.BusyTicks++
			sumIPS.Add(st.SumIPS)
			geo.Add(st.GeoMeanSpeedup)
			jain.Add(st.Jain)
		}
		if st.LCNodes > 0 {
			want.LCTicks++
			attain.Add(st.SLOAttainment)
			want.SLOViolatingNodeTicks += st.SLOViolatingNodes
		}
	}
	want.Placed = want.Departed + want.Running
	want.MeanSumIPS, want.MeanGeoMean, want.MeanJain = sumIPS.Mean(), geo.Mean(), jain.Mean()
	want.MeanSLOAttainment = attain.Mean()
	want.SkippedNodeTicks = run.sum.SkippedNodeTicks // not in the stream
	if run.sum != want {
		t.Fatalf("%s: Summary != fold over TickStats:\n got %+v\nwant %+v", name, run.sum, want)
	}
	if !opt.EventDriven && run.sum.SkippedNodeTicks != 0 {
		t.Fatalf("%s: lockstep reports %d skipped node-ticks", name, run.sum.SkippedNodeTicks)
	}
	return run
}

// Seeded random fleets — arrival rate, service time, size, shard count,
// placer, policy, workload pool — each with a fatal Sample fault planted
// on one node, each run in both stepping modes at two worker counts. Every
// run keeps runFleetOps' per-tick laws; a mode's trace is byte-identical
// across worker counts; and under the placers that read no node metrics
// the two modes agree on every churn counter of every tick both lived to
// see, so event-driven stepping changes what a node computes, never where
// a job goes. This is the licence for retiring lockstep as a production
// mode (ROADMAP item 4b).
func TestRandomOpsSummaryIsFoldOfTicks(t *testing.T) {
	const seeds, horizon = 24, 200
	halted, completed, skipped, compared, lcTicks := 0, 0, 0, 0, 0
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := stats.NewRNG(seed ^ 0xF1EE7)
		nodes := 2 + rng.Intn(6)
		opt := Options{
			Nodes:          nodes,
			Seed:           seed,
			Placer:         []string{"round-robin", "least-loaded", "fairness"}[rng.Intn(3)],
			Policy:         []string{"static", "parties", "satori"}[rng.Intn(3)],
			Shards:         []int{1, 4, nodes}[rng.Intn(3)],
			MaxJobsPerNode: 1 + rng.Intn(5),
			Stream: StreamOptions{
				ArrivalRate:  0.3 + 2.5*rng.Float64(),
				DurationMean: 2 + 10*rng.Float64(),
				DurationMin:  1,
				DurationMax:  25,
			},
		}
		if rng.Intn(2) == 0 {
			opt.Stream.Profiles = append(workloads.PARSEC()[:4], workloads.LC()...)
		}
		victim, call := rng.Intn(nodes), 1+rng.Intn(60)
		script, err := rdt.ParseFaultScript(fmt.Sprintf("sample:fatal@%d", call))
		if err != nil {
			t.Fatal(err)
		}
		opt.WrapPlatform = func(node int, p rdt.Platform) rdt.Platform {
			if node != victim {
				return p
			}
			fi, err := rdt.NewFaultInjector(p, script)
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return p
			}
			return fi
		}
		var byMode [2]fleetRun
		for mode, eventDriven := range []bool{false, true} {
			opt.EventDriven = eventDriven
			for _, workers := range []int{1, 4} {
				opt.Workers = workers
				name := fmt.Sprintf("seed %d (%d nodes, %d shards, %s, %s, fault on node %d sample %d) event-driven=%v workers=%d",
					seed, nodes, opt.Shards, opt.Placer, opt.Policy, victim, call, eventDriven, workers)
				run := runFleetOps(t, name, opt, horizon)
				if workers == 1 {
					byMode[mode] = run
				} else if serial := byMode[mode]; run.csv != serial.csv || run.halted != serial.halted || len(run.ticks) != len(serial.ticks) {
					t.Fatalf("%s: trace differs from the serial run's (%d ticks, halted %v; serial %d, %v)",
						name, len(run.ticks), run.halted, len(serial.ticks), serial.halted)
				}
			}
			if byMode[mode].halted {
				halted++
			} else {
				completed++
			}
			lcTicks += byMode[mode].sum.LCTicks
		}
		skipped += byMode[1].sum.SkippedNodeTicks
		if opt.Placer == "fairness" {
			continue // reads node speedups, which a skipped node holds
		}
		lock, event := byMode[0].ticks, byMode[1].ticks
		for i := 0; i < min(len(lock), len(event)); i++ {
			l, e := lock[i], event[i]
			if l.Arrivals != e.Arrivals || l.Departures != e.Departures || l.Running != e.Running || l.Queued != e.Queued {
				t.Fatalf("seed %d tick %d: stepping modes disagree on churn under %s:\nlockstep     %+v\nevent-driven %+v",
					seed, l.Tick, opt.Placer, l, e)
			}
			compared++
		}
	}
	if halted == 0 || completed == 0 || skipped == 0 || compared < 200 || lcTicks == 0 {
		t.Errorf("vacuous: %d runs halted, %d completed, %d node-ticks skipped, %d ticks compared across modes, %d LC ticks",
			halted, completed, skipped, compared, lcTicks)
	}
	t.Logf("%d seeds: %d runs halted, %d completed, %d node-ticks skipped, %d ticks compared across modes, %d LC ticks",
		seeds, halted, completed, skipped, compared, lcTicks)
}
