package core

import (
	"testing"

	"satori/internal/gp"
	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/sim"
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
