package sim

import (
	"math"
	"testing"

	"satori/internal/slo"
	"satori/internal/stats"
)

// refStep is the simulator's detailed tick: every job's model rate
// recomputed and phase boundaries crossed mid-tick. It is the reference
// Step is held to, kept here apart from the code under test so that an
// edit to the simulator's own detailed evaluation cannot move both sides
// at once.
func refStep(s *Simulator) Sample {
	dt := TickSeconds
	sample := Sample{
		Tick:         s.ticks + 1,
		IPS:          make([]float64, len(s.jobs)),
		PhaseChanged: make([]bool, len(s.jobs)),
	}
	if cap(s.modelIPS) < len(s.jobs) {
		s.modelIPS = make([]float64, len(s.jobs))
	}
	s.modelIPS = s.modelIPS[:len(s.jobs)]
	valid := true
	for j, jb := range s.jobs {
		a := s.jobAlloc(s.current, j)
		remaining := dt
		done := 0.0
		advanced := false
		for remaining > 1e-12 {
			p := jb.phase()
			ips := s.ipsModel(p, a)
			if ips <= 0 {
				break
			}
			left := p.Instructions - jb.workDone
			if t := left / ips; t <= remaining {
				done += left
				remaining -= t
				jb.workDone = 0
				jb.phaseIdx = (jb.phaseIdx + 1) % len(jb.profile.Phases)
				sample.PhaseChanged[j] = true
			} else {
				adv := ips * remaining
				jb.workDone += adv
				done += adv
				remaining = 0
				s.modelIPS[j] = ips
				advanced = true
			}
		}
		if sample.PhaseChanged[j] || !advanced {
			valid = false
		}
		sample.IPS[j] = s.noisy(done / dt)
	}
	s.ipsValid = valid
	s.ticks++
	sample.Time = s.Now()
	return sample
}

// stepTally counts what a driven sequence reached, so a test can require
// that every case it claims to cover was met.
type stepTally struct {
	ticks, extrapolated, crossings, nearSLO, applies, churns int
}

// shortProfile crosses a phase boundary every two or three ticks.
func shortProfile(name string) *Profile {
	p := testProfile(name)
	p.Phases[0].Instructions, p.Phases[1].Instructions = 2.5e9, 1.5e9
	return p
}

// lcProfile is a one-phase latency-critical job whose critical rate is
// crit: the model rate below which it violates its p99 target.
func lcProfile(name string, crit float64) *Profile {
	p := testProfile(name)
	p.Phases = p.Phases[:1]
	p.Phases[0].Instructions = 1e12
	const lambda, target = 100.0, 0.02
	p.SLO = &slo.Spec{
		TargetP99:           target,
		ServiceInstructions: crit / (lambda + math.Log(100)/target),
		ArrivalRate:         lambda,
	}
	return p
}

// stepPair builds two simulators of the same jobs: Step drives the first,
// refStep the second. The first job is latency-critical and runs at its
// critical rate under the initial equal split.
func stepPair(t *testing.T, seed uint64, sigma float64) (got, want *Simulator, pool []*Profile) {
	t.Helper()
	probe, err := New(DefaultMachine(), []*Profile{lcProfile("lc", 1), testProfile("j1"), shortProfile("s2")}, Options{NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := probe.ExactIPS(probe.Current())
	if err != nil {
		t.Fatal(err)
	}
	lc := lcProfile("lc", exact[0])
	pool = []*Profile{testProfile("j1"), shortProfile("s2"), lc, lcProfile("lc-slack", exact[0]/2)}
	build := func() *Simulator {
		s, err := New(DefaultMachine(), []*Profile{lc, pool[0], pool[1]}, Options{Seed: seed, NoiseSigma: sigma})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return build(), build(), pool
}

// driveStep applies the same operation sequence to both simulators, one
// operation per byte of ops, and requires after each one that Step's
// samples and the simulators' job states and RNG states agree bit for
// bit. Choices within an operation come from a generator seeded by seed.
func driveStep(t *testing.T, seed uint64, sigma float64, ops []byte) stepTally {
	t.Helper()
	got, want, pool := stepPair(t, seed, sigma)
	rng := stats.NewRNG(seed ^ 0x57E9)
	var tally stepTally
	for i, op := range ops {
		switch k := op % 16; {
		case k < 11:
			for n := int(op/16) + 1; n > 0; n-- {
				if got.SampledHorizon() > 0 {
					tally.extrapolated++
				}
				for j, jb := range got.jobs {
					if got.ipsValid && j < len(got.modelIPS) && got.nearSLOBoundary(jb, got.modelIPS[j]) {
						tally.nearSLO++
						break
					}
				}
				g, w := got.Step(), refStep(want)
				sameSample(t, i, g, w)
				for _, c := range w.PhaseChanged {
					if c {
						tally.crossings++
					}
				}
				tally.ticks++
			}
		case k == 11:
			c := want.Space().Random(rng)
			if (got.Apply(c) == nil) != (want.Apply(c) == nil) {
				t.Fatalf("op %d: Apply disagreed", i)
			}
			tally.applies++
		case k == 12:
			c := want.Current()
			_ = got.Apply(c)
			_ = want.Apply(c)
		case k == 13:
			j, p := rng.Intn(want.NumJobs()), pool[rng.Intn(len(pool))]
			if (got.ReplaceJob(j, p) == nil) != (want.ReplaceJob(j, p) == nil) {
				t.Fatalf("op %d: ReplaceJob disagreed", i)
			}
			tally.churns++
		case k == 14:
			p := pool[rng.Intn(len(pool))]
			if (got.AddJob(p) == nil) != (want.AddJob(p) == nil) {
				t.Fatalf("op %d: AddJob disagreed", i)
			}
			tally.churns++
		default:
			if want.NumJobs() == 1 {
				continue
			}
			j := rng.Intn(want.NumJobs())
			if (got.RemoveJob(j) == nil) != (want.RemoveJob(j) == nil) {
				t.Fatalf("op %d: RemoveJob disagreed", i)
			}
			tally.churns++
		}
		sameState(t, i, got, want)
	}
	return tally
}

func sameSample(t *testing.T, op int, g, w Sample) {
	t.Helper()
	if g.Tick != w.Tick || math.Float64bits(g.Time) != math.Float64bits(w.Time) || len(g.IPS) != len(w.IPS) {
		t.Fatalf("op %d: sample tick %d time %v over %d jobs, reference tick %d time %v over %d",
			op, g.Tick, g.Time, len(g.IPS), w.Tick, w.Time, len(w.IPS))
	}
	for j := range w.IPS {
		if math.Float64bits(g.IPS[j]) != math.Float64bits(w.IPS[j]) || g.PhaseChanged[j] != w.PhaseChanged[j] {
			t.Fatalf("tick %d job %d: IPS %v (phase changed %v), reference %v (%v)",
				w.Tick, j, g.IPS[j], g.PhaseChanged[j], w.IPS[j], w.PhaseChanged[j])
		}
	}
}

func sameState(t *testing.T, op int, got, want *Simulator) {
	t.Helper()
	if got.ticks != want.ticks || len(got.jobs) != len(want.jobs) || *got.rng != *want.rng {
		t.Fatalf("op %d: ticks %d over %d jobs, reference %d over %d, or the RNG states differ",
			op, got.ticks, len(got.jobs), want.ticks, len(want.jobs))
	}
	for j, jb := range want.jobs {
		g := got.jobs[j]
		if math.Float64bits(g.workDone) != math.Float64bits(jb.workDone) || g.phaseIdx != jb.phaseIdx {
			t.Fatalf("op %d job %d: phase %d workDone %v, reference phase %d workDone %v",
				op, j, g.phaseIdx, g.workDone, jb.phaseIdx, jb.workDone)
		}
	}
}

// TestStepMatchesDetailed holds Step — which extrapolates whenever
// StepSampled accepts — to the detailed reference over random operation
// sequences: long runs of ticks, phase boundaries, new partitions,
// ReplaceJob/AddJob/RemoveJob, a latency-critical job at its critical
// rate, with noise on and off. Its log line counts every case reached;
// all must be non-zero.
func TestStepMatchesDetailed(t *testing.T) {
	var sum stepTally
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		ops := make([]byte, 200)
		for i := range ops {
			if rng.Intn(5) == 0 {
				ops[i] = byte(11 + rng.Intn(5))
			} else {
				ops[i] = byte(rng.Intn(11) + 16*rng.Intn(16))
			}
		}
		for _, sigma := range []float64{-1, 0, 0.1} { // noise off, the default 2 %, 10 %
			tl := driveStep(t, seed, sigma, ops)
			sum.ticks += tl.ticks
			sum.extrapolated += tl.extrapolated
			sum.crossings += tl.crossings
			sum.nearSLO += tl.nearSLO
			sum.applies += tl.applies
			sum.churns += tl.churns
		}
	}
	t.Logf("%d ticks, %d promised extrapolations, %d phase crossings, %d refused at an SLO boundary, %d applies, %d churns",
		sum.ticks, sum.extrapolated, sum.crossings, sum.nearSLO, sum.applies, sum.churns)
	if sum.extrapolated == 0 || sum.crossings == 0 || sum.nearSLO == 0 || sum.applies == 0 || sum.churns == 0 {
		t.Fatalf("a case was never reached: %+v", sum)
	}
}

// FuzzStepMatchesDetailed is TestStepMatchesDetailed's check over
// operation sequences the fuzzer picks.
func FuzzStepMatchesDetailed(f *testing.F) {
	f.Add(uint64(1), false, []byte{0xf0, 0xf0, 0xf0, 11, 0xf0, 0xf0, 13, 0xf0, 14, 0xf0, 15, 0xf0})
	f.Add(uint64(2), true, []byte{0xf5, 0xf5, 12, 0xf5, 0xf5, 0xf5, 11, 0x35, 13, 13, 0xf0})
	f.Add(uint64(3), true, []byte{14, 14, 0xf0, 0xf0, 15, 15, 0xf0, 0xf0, 0xf0})
	f.Fuzz(func(t *testing.T, seed uint64, noise bool, ops []byte) {
		sigma := -1.0
		if noise {
			sigma = 0.05
		}
		driveStep(t, seed, sigma, ops)
	})
}
