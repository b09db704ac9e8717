package oracle

import (
	"fmt"
	"math"
	"testing"

	"satori/internal/metrics"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// The search as it was before it stopped allocating, kept as the
// reference Search must match bit for bit: every evaluation re-derives
// the isolated IPS and every job's IPS, and every climb step builds the
// whole neighbourhood.

// objective scores a configuration under (wT, wF) on the noise-free model
// at the jobs' current phases.
func (s *Searcher) objective(c resource.Config, wT, wF float64) float64 {
	ips, err := s.sim.ExactIPS(c)
	if err != nil {
		return math.Inf(-1)
	}
	iso := s.sim.ExactIsolated()
	t := metrics.NormalizedThroughput(s.opt.ThroughputMetric, ips, iso)
	f := metrics.NormalizedFairness(s.opt.FairnessMetric, ips, iso)
	return wT*t + wF*f
}

func (s *Searcher) refSearch(wT, wF float64) (resource.Config, float64) {
	if s.small {
		return s.refExhaustive(wT, wF)
	}
	return s.refHillClimb(wT, wF)
}

func (s *Searcher) refExhaustive(wT, wF float64) (resource.Config, float64) {
	var best resource.Config
	bestVal := math.Inf(-1)
	s.space.Enumerate(func(c resource.Config) bool {
		if v := s.objective(c, wT, wF); v > bestVal {
			bestVal = v
			best = c.Clone()
		}
		return true
	})
	return best, bestVal
}

func (s *Searcher) refHillClimb(wT, wF float64) (resource.Config, float64) {
	starts := []resource.Config{s.space.EqualSplit()}
	var bestProbe resource.Config
	bestProbeVal := math.Inf(-1)
	for i := 0; i < s.opt.Probes; i++ {
		c := s.space.Random(s.rng)
		if v := s.objective(c, wT, wF); v > bestProbeVal {
			bestProbeVal = v
			bestProbe = c
		}
	}
	if bestProbeVal > math.Inf(-1) {
		starts = append(starts, bestProbe)
	}
	for i := 0; i < s.opt.Restarts; i++ {
		starts = append(starts, s.space.Random(s.rng))
	}

	var best resource.Config
	bestVal := math.Inf(-1)
	for _, start := range starts {
		c, v := s.refClimb(start, wT, wF)
		if v > bestVal {
			bestVal = v
			best = c
		}
	}
	return best, bestVal
}

func (s *Searcher) refClimb(start resource.Config, wT, wF float64) (resource.Config, float64) {
	cur := start.Clone()
	curVal := s.objective(cur, wT, wF)
	for iter := 0; iter < 400; iter++ {
		improved := false
		for _, n := range s.space.Neighbors(cur) {
			if v := s.objective(n, wT, wF); v > curVal+1e-12 {
				cur, curVal = n, v
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, curVal
}

// referenceCase is one co-location the reference test searches, at
// several phase states.
type referenceCase struct {
	name     string
	profiles []*sim.Profile
	power    bool
	// exactLimit is forwarded to Options: 1 forces hill climbing, 0
	// keeps the default.
	exactLimit float64
}

func referenceCases(t *testing.T) []referenceCase {
	t.Helper()
	byName := func(names ...string) []*sim.Profile {
		var out []*sim.Profile
		for _, n := range names {
			p, err := workloads.ByName(n)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
		return out
	}
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	var cases []referenceCase
	for _, power := range []bool{false, true} {
		cases = append(cases,
			// 810 configurations (5 670 with power): exhaustive.
			referenceCase{name: "ecp-pair", profiles: byName("minife", "amg"), power: power},
			// The same space, climbed.
			referenceCase{name: "ecp-pair-climb", profiles: byName("minife", "amg"), power: power, exactLimit: 1},
			// Two identical jobs: mirrored allocations score within
			// rounding of each other, which is where the 1e-12 margin
			// decides which move is taken.
			referenceCase{name: "twins", profiles: byName("canneal", "swaptions", "canneal", "streamcluster"), power: power},
			referenceCase{name: "parsec-mix", profiles: mixes[4].Profiles, power: power},
		)
	}
	return cases
}

// TestSearchMatchesReference holds Search to the allocating search it
// replaced: the same configuration and the same objective bits for every
// goal, every throughput × fairness pairing, both machine shapes, the
// exhaustive and the hill-climbing path, five seeds and several phase
// states each. Both searchers draw from equal RNG streams, so each search
// also checks that the previous one consumed exactly the reference's
// draws.
func TestSearchMatchesReference(t *testing.T) {
	tms := []metrics.ThroughputMetric{metrics.SumIPS, metrics.GeoMeanSpeedup, metrics.HarmonicMeanSpeedup}
	fms := []metrics.FairnessMetric{metrics.JainIndex, metrics.OneMinusCoV}
	goals := []Goal{Balanced, Throughput, Fairness}
	seeds := []uint64{1, 2, 3, 4, 5}
	states := 3
	if testing.Short() {
		seeds, states = seeds[:2], 2
	}
	searches, climbs := 0, 0
	for _, tc := range referenceCases(t) {
		machine := sim.DefaultMachine()
		if tc.power {
			machine.PowerUnits = 8
		}
		for _, seed := range seeds {
			s, err := sim.New(machine, tc.profiles, sim.Options{Seed: seed, NoiseSigma: -1})
			if err != nil {
				t.Fatal(err)
			}
			type pair struct{ got, ref *Searcher }
			var pairs []pair
			for _, tm := range tms {
				for _, fm := range fms {
					opt := Options{Seed: seed, ExactLimit: tc.exactLimit, Probes: 64, ThroughputMetric: tm, FairnessMetric: fm}
					pairs = append(pairs, pair{NewSearcher(s, opt), NewSearcher(s, opt)})
				}
			}
			for state := 0; state < states; state++ {
				for _, p := range pairs {
					for _, g := range goals {
						wT, wF := g.Weights()
						got, gotVal := p.got.Search(wT, wF)
						want, wantVal := p.ref.refSearch(wT, wF)
						where := fmt.Sprintf("%s power=%v seed %d state %d %v/%v %s",
							tc.name, tc.power, seed, state, p.got.opt.ThroughputMetric, p.got.opt.FairnessMetric, g)
						if !got.Equal(want) || math.Float64bits(gotVal) != math.Float64bits(wantVal) {
							t.Fatalf("%s: Search %v (%v), reference %v (%v)", where, got.Alloc, gotVal, want.Alloc, wantVal)
						}
						searches++
						if !p.got.small {
							climbs++
						}
					}
				}
				// Move on to another joint phase state.
				for i := 0; i < 37+int(seed)*11; i++ {
					s.Step()
				}
			}
		}
	}
	t.Logf("%d searches matched the reference, %d of them hill climbs", searches, climbs)
}
