// Package oracle implements the Brute-Force Search (Oracle) reference of
// Sec. IV: an offline, practically-infeasible strategy with perfect
// knowledge that picks, at every decision point, the configuration
// maximizing a weighted combination of throughput and fairness. The three
// paper variants are provided: Throughput Oracle (W_T=1, W_F=0), Fairness
// Oracle (W_T=0, W_F=1) and Balanced Oracle (0.5/0.5) — the ceiling all
// results are normalized against.
//
// The oracle evaluates the simulator's noise-free performance model
// directly ("oracle knowledge"). Small spaces are searched exhaustively;
// large ones (a 5-job × 3-resource PARSEC mix has ~3.3M configurations)
// use multi-restart steepest-ascent hill climbing over the one-unit-move
// neighborhood with a random-probe pool, which on the simulator's smooth
// roofline model lands within noise of the exhaustive optimum (verified
// in the package tests). Results are cached per joint program phase, so
// the search only reruns when some job changes phase — the paper's own
// observation that the optimum moves with phases.
package oracle

import (
	"math"

	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stats"
)

// Goal selects the oracle variant.
type Goal int

const (
	// Balanced puts equal priority on throughput and fairness — the
	// reference ceiling for all reported results.
	Balanced Goal = iota
	// Throughput maximizes only system throughput (W_T=1, W_F=0).
	Throughput
	// Fairness maximizes only fairness (W_T=0, W_F=1).
	Fairness
)

// Weights returns the (W_T, W_F) pair of the goal.
func (g Goal) Weights() (wT, wF float64) {
	switch g {
	case Throughput:
		return 1, 0
	case Fairness:
		return 0, 1
	default:
		return 0.5, 0.5
	}
}

// String names the goal.
func (g Goal) String() string {
	switch g {
	case Throughput:
		return "throughput-oracle"
	case Fairness:
		return "fairness-oracle"
	default:
		return "balanced-oracle"
	}
}

// restarts is the number of random hill-climb restarts for large spaces,
// in addition to the equal-split and incumbent starts.
const restarts = 4

// Options tunes the search.
type Options struct {
	// ExactLimit is the largest space size searched exhaustively
	// (default 20,000 configurations).
	ExactLimit float64
	// Probes is the number of uniform random configurations scored as
	// extra candidate starts (default 256).
	Probes int
	// Seed drives the restart randomness.
	Seed uint64
	// ThroughputMetric and FairnessMetric select the objective
	// formulas. The zero values are the metrics package's Default*
	// sentinels, resolving to the paper's evaluation pairing
	// (sum-of-IPS + Jain's index).
	ThroughputMetric metrics.ThroughputMetric
	FairnessMetric   metrics.FairnessMetric
}

func (o *Options) fill() {
	if o.ExactLimit <= 0 {
		o.ExactLimit = 20000
	}
	if o.Probes <= 0 {
		o.Probes = 256
	}
}

// Searcher finds optimal configurations on a simulator's noise-free
// model. It keeps its scratch between searches, so it is not safe for
// concurrent use.
type Searcher struct {
	sim   *sim.Simulator
	space *resource.Space
	opt   Options
	rng   *stats.RNG
	small bool

	// iso is the isolated IPS at the phase state under search: a function
	// of the phases alone, and a search never advances the simulator.
	iso []float64
	// ips holds the per-job IPS of the configuration being scored, and
	// speedups the metrics' scratch.
	ips, speedups []float64
	// base is a climb's iteration-start IPS; up[r][j] and down[r][j] are
	// job j's IPS with one unit more or less of resource r than the base
	// gives it.
	base     []float64
	up, down [][]float64
	// starts holds the equal split, then the best probe and the random
	// restarts; probe, cur and best are the probe draw, the climb in
	// progress and the best configuration found.
	starts           []resource.Config
	probe, cur, best resource.Config
}

// NewSearcher builds a searcher over s.
func NewSearcher(s *sim.Simulator, opt Options) *Searcher {
	opt.fill()
	space := s.Space()
	jobs := func() []float64 { return make([]float64, space.Jobs) }
	sr := &Searcher{
		sim:      s,
		space:    space,
		opt:      opt,
		rng:      stats.NewRNG(opt.Seed ^ 0x0AC1E),
		small:    space.Size() <= opt.ExactLimit,
		ips:      jobs(),
		speedups: jobs(),
		base:     jobs(),
		starts:   []resource.Config{space.EqualSplit()},
		probe:    space.NewConfig(),
		cur:      space.NewConfig(),
		best:     space.NewConfig(),
	}
	for range space.Resources {
		sr.up, sr.down = append(sr.up, jobs()), append(sr.down, jobs())
	}
	for i := 0; i <= restarts; i++ {
		sr.starts = append(sr.starts, space.NewConfig())
	}
	return sr
}

// Search returns the best configuration found for the weight pair at the
// simulator's current phase state, along with its objective value. The
// configuration is freshly allocated; it is the zero Config, with value
// -Inf, when the simulator's job set no longer fits the searcher's space.
func (s *Searcher) Search(wT, wF float64) (resource.Config, float64) {
	s.iso = s.sim.ExactIsolated()
	var val float64
	if s.small {
		val = s.exhaustive(wT, wF)
	} else {
		val = s.hillClimb(wT, wF)
	}
	if math.IsInf(val, -1) {
		return resource.Config{}, val
	}
	return s.best.Clone(), val
}

// value scores c from scratch, leaving its per-job IPS in s.ips.
func (s *Searcher) value(c resource.Config, wT, wF float64) float64 {
	if err := s.sim.ExactIPSInto(s.ips, c); err != nil {
		return math.Inf(-1)
	}
	return s.score(wT, wF)
}

// score is the objective under (wT, wF) of the per-job IPS in s.ips.
func (s *Searcher) score(wT, wF float64) float64 {
	t := metrics.NormalizedThroughputInto(s.opt.ThroughputMetric, s.ips, s.iso, s.speedups)
	f := metrics.NormalizedFairnessInto(s.opt.FairnessMetric, s.ips, s.iso, s.speedups)
	return wT*t + wF*f
}

// exhaustive leaves the best configuration of the space in s.best and
// returns its value.
func (s *Searcher) exhaustive(wT, wF float64) float64 {
	bestVal := math.Inf(-1)
	s.space.Enumerate(func(c resource.Config) bool {
		if v := s.value(c, wT, wF); v > bestVal {
			bestVal = v
			s.best.CopyFrom(c)
		}
		return true
	})
	return bestVal
}

// hillClimb climbs from each candidate start — the equal split, the best
// of a random probe pool and a few random restarts — leaving the best
// summit in s.best and returning its value.
func (s *Searcher) hillClimb(wT, wF float64) float64 {
	starts := s.starts[:1]
	bestProbeVal := math.Inf(-1)
	for i := 0; i < s.opt.Probes; i++ {
		s.space.RandomInto(s.rng, s.probe)
		if v := s.value(s.probe, wT, wF); v > bestProbeVal {
			bestProbeVal = v
			s.starts[1].CopyFrom(s.probe)
		}
	}
	if bestProbeVal > math.Inf(-1) {
		starts = s.starts[:2]
	}
	for i := 0; i < restarts; i++ {
		starts = s.starts[:len(starts)+1]
		s.space.RandomInto(s.rng, starts[len(starts)-1])
	}

	bestVal := math.Inf(-1)
	for _, start := range starts {
		if v := s.climb(start, wT, wF); v > bestVal {
			bestVal = v
			s.best.CopyFrom(s.cur)
		}
	}
	return bestVal
}

// climb performs steepest ascent over the one-unit-move neighbourhood
// from start, leaving the summit in s.cur and returning its value. Each
// iteration walks the moves of its start configuration, the base, in
// Space.Neighbors' order (resource, donor, receiver) and takes any that
// beats the running best by more than 1e-12; the last move taken makes
// the next base. A move re-models only its donor and receiver: every
// other job keeps its base IPS, because a job's IPS depends only on its
// own phase and allocation.
func (s *Searcher) climb(start resource.Config, wT, wF float64) float64 {
	cur := s.cur
	cur.CopyFrom(start)
	curVal := s.value(cur, wT, wF)
	if math.IsInf(curVal, -1) {
		// The simulator's job set no longer fits the space; nor does
		// any neighbour.
		return curVal
	}
	copy(s.base, s.ips)
	for j := range s.base {
		s.moveTables(cur, j)
	}
	for iter := 0; iter < 400; iter++ {
		r0, from0, to0 := -1, 0, 0
		for r, row := range cur.Alloc {
			up, down := s.up[r], s.down[r]
			for from, units := range row {
				if units <= 1 {
					continue // would drop below the 1-unit floor
				}
				for to := range row {
					if to == from {
						continue
					}
					s.ips[from], s.ips[to] = down[from], up[to]
					v := s.score(wT, wF)
					s.ips[from], s.ips[to] = s.base[from], s.base[to]
					if v > curVal+1e-12 {
						curVal = v
						r0, from0, to0 = r, from, to
					}
				}
			}
		}
		if r0 < 0 {
			break
		}
		cur.Alloc[r0][from0]--
		cur.Alloc[r0][to0]++
		s.base[from0], s.base[to0] = s.down[r0][from0], s.up[r0][to0]
		s.ips[from0], s.ips[to0] = s.base[from0], s.base[to0]
		s.moveTables(cur, from0)
		s.moveTables(cur, to0)
	}
	return curVal
}

// moveTables fills job j's column of s.up and s.down for base
// configuration c, which it leaves as it found it. A down entry exists
// only where the job holds more than one unit.
func (s *Searcher) moveTables(c resource.Config, j int) {
	for r, row := range c.Alloc {
		row[j]++
		s.up[r][j] = s.sim.ExactJobIPS(c, j)
		row[j] -= 2
		if row[j] >= 1 {
			s.down[r][j] = s.sim.ExactJobIPS(c, j)
		}
		row[j]++
	}
}

// Policy wraps a Searcher as a policy.Policy, re-searching only when some
// job's phase changes (cached per joint phase state,
// sim.Simulator.AppendPhaseKey).
type Policy struct {
	goal     Goal
	searcher *Searcher
	cache    map[string]resource.Config
	key      []byte
}

// New builds an oracle policy of the given goal over simulator s.
func New(goal Goal, s *sim.Simulator, opt Options) *Policy {
	return &Policy{
		goal:     goal,
		searcher: NewSearcher(s, opt),
		cache:    make(map[string]resource.Config),
	}
}

// Name implements policy.Policy.
func (p *Policy) Name() string { return p.goal.String() }

// Decide implements policy.Policy.
func (p *Policy) Decide(_ policy.Observation, current resource.Config) resource.Config {
	p.key = p.searcher.sim.AppendPhaseKey(p.key[:0])
	if c, ok := p.cache[string(p.key)]; ok {
		return c
	}
	wT, wF := p.goal.Weights()
	best, _ := p.searcher.Search(wT, wF)
	if best.Alloc == nil {
		return current
	}
	p.cache[string(p.key)] = best
	return best
}
