package core

import (
	"math"
	"testing"

	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// observer returns tick's observation of an environment now running current.
type observer func(tick int, current resource.Config) policy.Observation

// environment builds a fresh environment: its space and its observer.
type environment func(t *testing.T) (*resource.Space, observer)

// synthetic is the noisy synthetic environment. A NaN throughput at tick
// nanAt (when positive) poisons that configuration's record: no window
// holding it can be factored, so the model update fails until the window
// moves past it, and again whenever the search revisits it.
func synthetic(nanAt int) environment {
	return func(*testing.T) (*resource.Space, observer) {
		env := newSyntheticEnv(0.01)
		return env.space, func(tick int, current resource.Config) policy.Observation {
			tp, fair := env.eval(current)
			if tick == nanAt {
				tp = math.NaN()
			}
			return policy.Observation{Tick: tick, Time: float64(tick) * 0.1, Throughput: tp, Fairness: fair}
		}
	}
}

// simulated is the simulator on PARSEC mix: each observation applies the
// configuration running and observes one step.
func simulated(mix int) environment {
	return func(t *testing.T) (*resource.Space, observer) {
		mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
		if err != nil {
			t.Fatal(err)
		}
		simulator, err := sim.New(sim.DefaultMachine(), mixes[mix].Profiles, sim.Options{Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		isolated := simulator.MeasureIsolated()
		return simulator.Space(), func(tick int, current resource.Config) policy.Observation {
			if err := simulator.Apply(current); err != nil {
				t.Fatalf("tick %d: %v", tick, err)
			}
			s := simulator.Step()
			return policy.Observation{
				Tick: tick, Time: s.Time,
				Throughput: metrics.NormalizedThroughput(metrics.DefaultThroughput, s.IPS, isolated),
				Fairness:   metrics.NormalizedFairness(metrics.DefaultFairness, s.IPS, isolated),
			}
		}
	}
}

// lockstepRun is what one lockstep run saw.
type lockstepRun struct {
	scored, narrowed int
	diverged, first  int // ticks whose decisions differed, and the first of them
	exploreResets    int // settled runs ended by a probe
	winResets        int // settled runs ended by an exploit whose scored fresh panel could win
	failResets       int // settled runs ended by a failed model update
}

// fullIndex maps a narrowed tick's scored candidate slot to the slot the
// same draw takes in the whole panel: the kept random draws, then the kept
// walks, which the whole panel lays out after every random draw.
func fullIndex(e *Engine, slot int) int {
	keepR, _ := e.freshPanel(true)
	if slot < keepR {
		return slot
	}
	return e.opt.Candidates/2 + slot - keepR
}

// lockstep runs a settled-narrowing engine and a full-panel one, built from
// the same options, on the same observations for ticks ticks; the
// environment follows the full engine. Both engines draw the same random
// numbers and see the same windows, so every tick is compared:
//   - the RNG state and every scored candidate (through fullIndex) agree:
//     the unscored ones only advanced the RNG, their slots were not
//     written;
//   - every scored pool entry has the full engine's μ bits, and its σ bits
//     wherever both solved the fresh panel;
//   - the narrowed engine's settled count follows its ticks: one more
//     (up to settleTicks) after an exploit whose fresh panel was ruled out,
//     zero after anything else, and a tick narrows exactly when it starts
//     from settleTicks;
//   - the decisions agree, or the tick was narrowed and the full engine
//     probed one of the drawn but unscored fresh candidates.
func lockstep(t *testing.T, opt Options, env environment, ticks int) lockstepRun {
	t.Helper()
	space, observe := env(t)
	narrow, err := New(space, opt)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(space, opt)
	if err != nil {
		t.Fatal(err)
	}
	full.fullPanel = true
	var run lockstepRun
	current := space.EqualSplit()
	for tick := 1; tick <= ticks; tick++ {
		nb, fb, settled := narrow.Stats(), full.Stats(), narrow.settled
		obs := observe(tick, current)
		got, want := narrow.Decide(obs, current), full.Decide(obs, current)
		d, fd := addStats(narrow.Stats(), nb, -1), addStats(full.Stats(), fb, -1)
		if *narrow.rng != *full.rng {
			t.Fatalf("tick %d: the engines' random streams parted", tick)
		}
		if fd.NarrowTicks != 0 {
			t.Fatalf("tick %d: the full-panel engine narrowed", tick)
		}
		scored := d.ModelTicks == 1 && d.FitFailures == 0
		narrowed := d.NarrowTicks == 1
		if narrowed != (scored && settled >= settleTicks) || d.NarrowTicks > 1 {
			t.Fatalf("tick %d: %d narrowed ticks from a settled count of %d (scored: %v)", tick, d.NarrowTicks, settled, scored)
		}
		wantSettled := int8(0)
		switch {
		case scored && d.Exploits == 1 && d.FreshSkips == 1:
			wantSettled = min(settled+1, settleTicks)
		case settled > 0 && scored && d.Exploits == 1:
			run.winResets++
		case settled > 0 && scored && d.AcquisitionFailures == 0:
			run.exploreResets++
		case settled > 0 && d.FitFailures == 1:
			run.failResets++
		}
		if d.SeedTicks == 1 {
			wantSettled = settled
		}
		if narrow.settled != wantSettled {
			t.Fatalf("tick %d: settled count %d after %d and %+v, want %d", tick, narrow.settled, settled, d, wantSettled)
		}
		if scored {
			run.scored++
			comparePools(t, tick, narrow, full, narrowed, d.FreshSkips == 0 && fd.FreshSkips == 0)
		}
		if narrowed {
			run.narrowed++
		}
		if !got.Equal(want) {
			if !narrowed || !unscoredHolds(full, want) {
				t.Fatalf("tick %d: narrowed engine decided %s, full panel %s, which no unscored fresh candidate holds (narrowed: %v)",
					tick, got.Key(), want.Key(), narrowed)
			}
			if run.diverged == 0 {
				run.first = tick
			}
			run.diverged++
		}
		current = want
	}
	return run
}

// comparePools holds the narrowed engine's candidates and scored posterior
// to the full engine's, bit for bit.
func comparePools(t *testing.T, tick int, narrow, full *Engine, narrowed, sigmas bool) {
	t.Helper()
	if narrow.candCount != full.candCount {
		t.Fatalf("tick %d: pools of %d and %d candidates", tick, narrow.candCount, full.candCount)
	}
	lo, hi := unscored(narrow, narrowed)
	nMu, nSigma := narrow.posterior()
	fMu, fSigma := full.posterior()
	for i := 0; i < narrow.candCount; i++ {
		if lo <= i && i < hi {
			continue
		}
		j := i
		if narrowed && i < lo {
			j = fullIndex(narrow, i)
		}
		if i < narrow.opt.Candidates && !narrow.candidateCfg[i].Equal(full.candidateCfg[j]) {
			t.Fatalf("tick %d: slot %d holds %s, the full panel's slot %d %s", tick, i, narrow.candidateCfg[i].Key(), j, full.candidateCfg[j].Key())
		}
		sigmaOK := !sigmas && i < narrow.opt.Candidates ||
			math.Float64bits(nSigma[i]) == math.Float64bits(fSigma[j])
		if math.Float64bits(nMu[i]) != math.Float64bits(fMu[j]) || !sigmaOK {
			t.Fatalf("tick %d: candidate %d scored (%v, %v), the full panel's %d (%v, %v)",
				tick, i, nMu[i], nSigma[i], j, fMu[j], fSigma[j])
		}
	}
}

// unscoredHolds reports whether c is one of the full-panel engine full's
// fresh candidates whose draws a narrowed tick takes without building them:
// the random and walk draws past each half's kept quarter.
func unscoredHolds(full *Engine, c resource.Config) bool {
	keepR, keepW := full.freshPanel(true)
	randoms := full.opt.Candidates / 2
	for j, u := range full.candidateCfg[:full.opt.Candidates] {
		kept := j < keepR || randoms <= j && j < randoms+keepW
		if !kept && u.Equal(c) {
			return true
		}
	}
	return false
}

// TestNarrowedPanelMatchesFullPanel holds a settled engine's narrowed fresh
// panel to the whole panel in lockstep: same draws, same bits on every
// scored candidate, and a decision that differs only where an unscored
// fresh candidate wins. The rows check that EI narrows and its settled
// count resets after an explore tick, after a scored fresh panel that could
// win and after a failed model update, and that UCB, PI and Thompson
// sampling never narrow, so their two engines decide alike on every tick.
func TestNarrowedPanelMatchesFullPanel(t *testing.T) {
	var total lockstepRun
	for _, row := range []struct {
		name string
		opt  Options
		env  environment
		want func(lockstepRun) bool // what the row must have seen
	}{
		{"ei synthetic", Options{Seed: 9, Window: 16}, synthetic(0),
			func(r lockstepRun) bool { return r.narrowed > 0 }},
		{"ei synthetic, explore resets", Options{Seed: 11, Window: 8, ExploitThreshold: 0.002}, synthetic(0),
			func(r lockstepRun) bool { return r.narrowed > 0 && r.exploreResets > 0 }},
		{"ei mix 0, a scored panel that could win resets", Options{Seed: 23}, simulated(0),
			func(r lockstepRun) bool { return r.narrowed > 0 && r.winResets > 0 }},
		{"ei mix 1", Options{Seed: 23, Window: 16}, simulated(1),
			func(r lockstepRun) bool { return r.narrowed > 0 }},
		{"ei synthetic, a failed fit resets", Options{Seed: 9, Window: 4}, synthetic(200),
			func(r lockstepRun) bool { return r.narrowed > 0 && r.failResets > 0 }},
		{"ucb never narrows", Options{Seed: 9, Acquisition: "ucb"}, synthetic(0),
			func(r lockstepRun) bool { return r.narrowed == 0 && r.diverged == 0 }},
		{"pi never narrows", Options{Seed: 9, Acquisition: "pi"}, simulated(0),
			func(r lockstepRun) bool { return r.narrowed == 0 && r.diverged == 0 }},
		{"ts never narrows", Options{Seed: 9, Acquisition: "ts"}, synthetic(0),
			func(r lockstepRun) bool { return r.narrowed == 0 && r.diverged == 0 }},
	} {
		run := lockstep(t, row.opt, row.env, 400)
		if run.scored < 250 || !row.want(run) {
			t.Fatalf("%s: %+v", row.name, run)
		}
		t.Logf("%s: %d scored ticks, %d narrowed, %d diverged (first at tick %d), settled runs reset by %d probes, %d winnable panels and %d failed fits",
			row.name, run.scored, run.narrowed, run.diverged, run.first, run.exploreResets, run.winResets, run.failResets)
		total.narrowed += run.narrowed
		total.diverged += run.diverged
	}
	if total.narrowed == 0 || total.diverged == 0 {
		t.Fatalf("%d ticks narrowed, %d diverged: the divergence check was never exercised", total.narrowed, total.diverged)
	}
}
