package core

import (
	"reflect"
	"slices"
	"testing"

	"satori/internal/gp"
	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// simDrive is one engine deciding for one simulated node.
type simDrive struct {
	eng       *Engine
	simulator *sim.Simulator
	isolated  []float64
	tick      int
}

// newSimDrive builds an engine under opt over jobs copies of the PARSEC
// profiles on machine.
func newSimDrive(t *testing.T, machine sim.MachineSpec, jobs int, opt Options) *simDrive {
	t.Helper()
	parsec := workloads.PARSEC()
	profiles := make([]*sim.Profile, jobs)
	for i := range profiles {
		profiles[i] = parsec[(i+int(opt.Seed))%len(parsec)]
	}
	simulator, err := sim.New(machine, profiles, sim.Options{Seed: opt.Seed})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(simulator.Space(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return &simDrive{eng: eng, simulator: simulator, isolated: simulator.MeasureIsolated()}
}

// step runs one tick and returns the decision's key.
func (d *simDrive) step(t *testing.T) string {
	t.Helper()
	d.tick++
	s := d.simulator.Step()
	next := d.eng.Decide(policy.Observation{
		Tick: d.tick, Time: s.Time,
		Throughput: metrics.NormalizedThroughput(metrics.DefaultThroughput, s.IPS, d.isolated),
		Fairness:   metrics.NormalizedFairness(metrics.DefaultFairness, s.IPS, d.isolated),
	}, d.simulator.Current())
	if err := d.simulator.Apply(next); err != nil {
		t.Fatalf("tick %d: %v", d.tick, err)
	}
	return next.Key()
}

// TestInterleavedEnginesShareTheScratch: engines of four shapes — a
// five-job node at window 64, a 16-job node in dimension 48 (the walk
// update's fill), Thompson sampling over its whole pool, and a two-job node
// with 80 fresh candidates — decide one tick each in turn on one goroutine,
// so that every tick borrows the one scratch the tick before returned, its
// buffers last sized and written by an engine of another shape. Each
// engine's decision stream must equal the one it makes alone, tick by tick.
func TestInterleavedEnginesShareTheScratch(t *testing.T) {
	wide := sim.DefaultMachine()
	wide.Cores, wide.LLCWays, wide.MemBWUnits = 32, 35, 32
	build := func() []*simDrive {
		return []*simDrive{
			newSimDrive(t, sim.DefaultMachine(), 5, Options{Seed: 41}),
			newSimDrive(t, wide, 16, Options{Seed: 42, Window: 16}),
			newSimDrive(t, sim.DefaultMachine(), 4, Options{Seed: 43, Window: 24, Acquisition: "ts"}),
			newSimDrive(t, sim.DefaultMachine(), 2, Options{Seed: 44, Candidates: 80}),
		}
	}
	const ticks = 120
	alone := make([][]string, 0, 4)
	for _, d := range build() {
		var stream []string
		for range ticks {
			stream = append(stream, d.step(t))
		}
		alone = append(alone, stream)
	}
	drives := build()
	shared := gp.TakeScratch()
	shared.Release()
	model := 0
	for tick := range ticks {
		for i, d := range drives {
			before := d.eng.modelTicks
			if got := d.step(t); got != alone[i][tick] {
				t.Fatalf("engine %d tick %d: decided %s interleaved, %s alone", i, tick+1, got, alone[i][tick])
			}
			if d.eng.modelTicks == before {
				continue
			}
			model++
			// The tick returned the scratch it borrowed: the next borrower
			// gets the same one.
			if s := gp.TakeScratch(); s != shared {
				t.Fatalf("engine %d tick %d: the list lends another scratch after the tick", i, tick+1)
			} else {
				s.Release()
			}
		}
	}
	if model == 0 {
		t.Fatal("no engine reached its model: no scratch was shared")
	}
	t.Logf("%d ticks of %d engines, %d of them model ticks that shared one scratch", ticks, len(drives), model)
}

// blockStorage returns the lengths and the capacities of b's K* and tail.
func blockStorage(b *gp.Block) (kstar, tail [2]int) {
	v := reflect.ValueOf(b).Elem()
	k, tl := v.FieldByName("kstar"), v.FieldByName("tail")
	return [2]int{k.Len(), k.Cap()}, [2]int{tl.Len(), tl.Cap()}
}

// TestBlocksKeepKStarOnlyForAWindowDecision: after every scored Decide, an
// engine's neighbourhood blocks hold storage only when the decision is a
// record of the model's window. Then only the blocks of the tick's top
// records may hold K*, each of them holding a tail and each part at most
// twice what its data takes, and every other block holds a tail at most;
// after any other decision, whose next tick moves the kernel epoch, no
// block holds any. The drives
// run under the refit oracle, in turn on one goroutine: five PARSEC jobs on
// the simulator at window 64, whose blocks leave spares larger than twice
// what the next engines' blocks take, then the synthetic landscape — EI at
// the default and at a never-exploit threshold, UCB and Thompson sampling.
// One decision in five is not applied, as when the loop holds a tick: the
// next tick then keeps the epoch, and re-scores blocks emptied under an
// epoch that still stands.
func TestBlocksKeepKStarOnlyForAWindowDecision(t *testing.T) {
	parsec := workloads.PARSEC()
	simulator, err := sim.New(sim.DefaultMachine(), parsec[:5], sim.Options{Seed: 60})
	if err != nil {
		t.Fatal(err)
	}
	isolated := simulator.MeasureIsolated()
	simulated := func(c resource.Config) (throughput, fairness float64) {
		if err := simulator.Apply(c); err != nil {
			t.Fatal(err)
		}
		s := simulator.Step()
		return metrics.NormalizedThroughput(metrics.DefaultThroughput, s.IPS, isolated),
			metrics.NormalizedFairness(metrics.DefaultFairness, s.IPS, isolated)
	}
	synthetic := newSyntheticEnv(0.01)
	kept, recycled, stood, shed := 0, 0, 0, 0
	for i, run := range []struct {
		space *resource.Space
		eval  func(resource.Config) (throughput, fairness float64)
		opt   Options
	}{
		{simulator.Space(), simulated, Options{Seed: 60, Window: 64}},
		{synthetic.space, synthetic.eval, Options{Seed: 61, Window: 16}},
		{synthetic.space, synthetic.eval, Options{Seed: 62, Window: 64, ExploitThreshold: -1}},
		{synthetic.space, synthetic.eval, Options{Seed: 63, Window: 12, Acquisition: "ucb"}},
		{synthetic.space, synthetic.eval, Options{Seed: 64, Window: 12, Acquisition: "ts"}},
	} {
		eng, err := New(run.space, run.opt)
		if err != nil {
			t.Fatal(err)
		}
		o := &refitOracle{t: t, eng: eng}
		hold := stats.NewRNG(uint64(i))
		current := run.space.EqualSplit()
		emptied := false // the last decision emptied the blocks and was not applied
		for tick := 1; tick <= 300; tick++ {
			tp, fair := run.eval(current)
			before := eng.Stats()
			next := o.Decide(policy.Observation{Tick: tick, Time: float64(tick) * 0.1, Throughput: tp, Fairness: fair}, current)
			after := eng.Stats()
			scored := after.ModelTicks != before.ModelTicks && after.FitFailures == before.FitFailures
			if scored && emptied && after.Refits+after.Extends == before.Refits+before.Extends {
				stood++
			}
			emptied = false
			if scored {
				inWindow := slices.ContainsFunc(eng.modelRecs, func(s int32) bool { return eng.recs.configOf(s).Equal(next) })
				for s := range eng.blocks {
					blk := &eng.blocks[s]
					kstar, tail := blockStorage(&blk.Block)
					top := slices.Contains(eng.poolTop[:eng.poolTopN], blk.rec)
					switch {
					case !inWindow && kstar[1]+tail[1] > 0:
						t.Fatalf("run %d tick %d: a decision outside the window left block %d %d floats of K* and %d of tail", i, tick, s, kstar[1], tail[1])
					case inWindow && !top && kstar[1] > 0:
						t.Fatalf("run %d tick %d: block %d, of a record outside the top, keeps %d floats of K*", i, tick, s, kstar[1])
					case inWindow && top && (tail[0] == 0 || kstar[1] > 2*kstar[0] || tail[1] > 2*tail[0]):
						t.Fatalf("run %d tick %d: top block %d keeps %d floats for %d of K* and %d for %d of tail", i, tick, s, kstar[1], kstar[0], tail[1], tail[0])
					case inWindow && !top && tail[0] > 0:
						shed++
					}
				}
				if inWindow {
					kept++
				} else {
					recycled++
					emptied = true
				}
			}
			if hold.Intn(5) == 0 {
				continue // not applied: the loop keeps the current configuration
			}
			emptied, current = false, next
		}
	}
	if kept == 0 || recycled == 0 || stood == 0 || shed == 0 {
		t.Fatalf("%d decisions kept the blocks, %d emptied them, %d ticks met emptied blocks under a standing epoch, %d blocks outside the top kept a tail alone: a case never ran", kept, recycled, stood, shed)
	}
	t.Logf("%d decisions kept the blocks, %d emptied them, %d ticks met emptied blocks under a standing epoch, %d blocks outside the top kept a tail alone", kept, recycled, stood, shed)
}

// TestBlockForNeverRekeysATopRecord: when a record of the tick's top has no
// block, blockFor re-keys the least recently met block whose record is not
// in the top, even when the least recently met blocks of all are the other
// top records' — which their own turn in the tick then finds kept.
func TestBlockForNeverRekeysATopRecord(t *testing.T) {
	var e Engine
	e.blocks = make([]neighborBlock, blockSlots)
	for i := range e.blocks {
		e.blocks[i].rec = ref{slot: int32(i), stamp: 1} // blocks[len−1] was met least recently
	}
	last := int32(blockSlots - 1)
	top := []ref{{slot: 99, stamp: 1}, {slot: last, stamp: 1}, {slot: last - 1, stamp: 1}}
	blk, kept := e.blockFor(top[0], top)
	if kept || blk.rec != top[0] || &e.blocks[0] != blk {
		t.Fatalf("a record without a block got %+v, kept %v", blk.rec, kept)
	}
	for _, rec := range []ref{top[1], top[2]} {
		if !slices.ContainsFunc(e.blocks, func(b neighborBlock) bool { return b.rec == rec }) {
			t.Fatalf("the block of top record %+v was re-keyed", rec)
		}
	}
	if slices.ContainsFunc(e.blocks, func(b neighborBlock) bool { return b.rec.slot == last-2 }) {
		t.Fatalf("the least recently met block outside the top, record %d, was not the one re-keyed", last-2)
	}
	for _, rec := range top[1:] {
		if blk, kept := e.blockFor(rec, top); !kept || blk.rec != rec {
			t.Fatalf("top record %+v did not find its block", rec)
		}
	}
}
