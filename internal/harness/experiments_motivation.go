package harness

import (
	"fmt"
	"math"

	"satori/internal/metrics"
	"satori/internal/policies/oracle"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/trace"
)

// The Sec. II characterization figures (Figs. 1-3) search exhaustively
// offline, with oracle knowledge, on one simulator.

// motivationSim builds the five-job PARSEC mix 0 simulator, noise-free.
func motivationSim(opt ExpOptions) (*sim.Simulator, error) {
	jobs, err := mixZeroJobs()
	if err != nil {
		return nil, err
	}
	return sim.New(sim.DefaultMachine(), jobs, sim.Options{Seed: opt.Seed, NoiseSigma: -1})
}

// motivationSearcher is the oracle search over s's noise-free model
// under the default metrics.
func motivationSearcher(s *sim.Simulator, opt ExpOptions) *oracle.Searcher {
	met := DefaultMetrics()
	return oracle.NewSearcher(s, oracle.Options{
		Seed: opt.Seed, ThroughputMetric: met.Throughput, FairnessMetric: met.Fairness,
	})
}

// scoreConfig evaluates a configuration on the noise-free model.
func scoreConfig(s *sim.Simulator, c resource.Config) (t, f float64) {
	ips, err := s.ExactIPS(c)
	if err != nil {
		return 0, 0
	}
	iso, m := s.ExactIsolated(), DefaultMetrics()
	return metrics.NormalizedThroughput(m.Throughput, ips, iso),
		metrics.NormalizedFairness(m.Fairness, ips, iso)
}

// fig1Outcome tracks the Throughput Oracle's configuration over a run:
// at about a dozen sampled instants, job 0's % share of every resource
// (the paper plots one line per resource) and whether the optimum had
// just moved; and the distance of every move.
type fig1Outcome struct {
	seconds, maxDistance float64
	times                []float64
	shares               [][]float64
	changed              []bool
	moves                []float64
}

func measureFig1(opt ExpOptions) (fig1Outcome, error) {
	s, err := motivationSim(opt)
	if err != nil {
		return fig1Outcome{}, err
	}
	searcher := motivationSearcher(s, opt)
	space := s.Space()
	out := fig1Outcome{seconds: float64(opt.Ticks) * sim.TickSeconds, maxDistance: space.MaxDistance()}
	var prev resource.Config
	sampleEvery := max(opt.Ticks/12, 1)
	for tick := 0; tick < opt.Ticks; tick++ {
		best, _ := searcher.Search(1, 0) // Throughput Oracle
		changed := prev.Alloc != nil && !best.Equal(prev)
		if changed {
			out.moves = append(out.moves, resource.Distance(best, prev))
		}
		if tick%sampleEvery == 0 {
			shares := make([]float64, len(space.Resources))
			for r, res := range space.Resources {
				shares[r] = float64(best.Alloc[r][0]) / float64(res.Units) * 100
			}
			out.times = append(out.times, float64(tick)*sim.TickSeconds)
			out.shares, out.changed = append(out.shares, shares), append(out.changed, changed)
		}
		prev = best
		if err := s.Apply(best); err != nil {
			return fig1Outcome{}, err
		}
		s.Step()
	}
	return out, nil
}

func renderFig1(rep *Report, out fig1Outcome) {
	tbl := trace.NewTable("time", "cores share %", "llc share %", "membw share %", "changed")
	for i, shares := range out.shares {
		row := []string{fmt.Sprintf("%.1fs", out.times[i])}
		for _, share := range shares {
			row = append(row, fmt.Sprintf("%.0f%%", share))
		}
		mark := ""
		if out.changed[i] {
			mark = "*"
		}
		tbl.AddRow(append(row, mark)...)
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("optimal configuration changed %d times in %.0f s", len(out.moves), out.seconds),
		fmt.Sprintf("mean move distance %.2f units (max possible %.2f)", stats.Mean(out.moves), out.maxDistance))
}

// fig2Outcome scores five ways of choosing one configuration at one
// instant: the throughput, fairness and balanced optima, the (rounded,
// repaired) average of the first two, and alternating between them.
type fig2Outcome struct {
	strategies            []string
	t, f                  []float64 // per strategy, in that order
	distance, maxDistance float64   // between the two single-goal optima
}

func measureFig2(opt ExpOptions) (fig2Outcome, error) {
	s, err := motivationSim(opt)
	if err != nil {
		return fig2Outcome{}, err
	}
	// Warm up so the jobs sit mid-phase rather than at aligned starts.
	for i := 0; i < opt.Ticks/4; i++ {
		s.Step()
	}
	searcher := motivationSearcher(s, opt)
	tOpt, _ := searcher.Search(1, 0)
	fOpt, _ := searcher.Search(0, 1)
	bOpt, _ := searcher.Search(0.5, 0.5)
	out := fig2Outcome{distance: resource.Distance(tOpt, fOpt), maxDistance: s.Space().MaxDistance(),
		strategies: []string{"throughput-optimal config", "fairness-optimal config", "balanced-oracle config", "averaged config", "alternating halves"}}
	for _, c := range []resource.Config{tOpt, fOpt, bOpt, averageConfigs(s.Space(), tOpt, fOpt)} {
		t, f := scoreConfig(s, c)
		out.t, out.f = append(out.t, t), append(out.f, f)
	}
	// Alternating halves: half the time in each single-goal optimum.
	out.t, out.f = append(out.t, (out.t[0]+out.t[1])/2), append(out.f, (out.f[0]+out.f[1])/2)
	return out, nil
}

func renderFig2(rep *Report, out fig2Outcome) {
	tT, fF := out.t[0], out.f[1] // each single-goal optimum's own goal
	tbl := trace.NewTable("strategy", "throughput", "fairness", "T %of T-oracle", "F %of F-oracle")
	for i, name := range out.strategies {
		tbl.AddRow(name, trace.F(out.t[i]), trace.F(out.f[i]), trace.Pct(out.t[i]/tT), trace.Pct(out.f[i]/fF))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("config distance between the two optima: %.2f units (max %.2f)", out.distance, out.maxDistance),
		fmt.Sprintf("paper: T-optimal achieves 67%% of optimal fairness (here %.0f%%); F-optimal achieves 59%% of optimal throughput (here %.0f%%)", out.f[0]/fF*100, out.t[1]/tT*100),
		fmt.Sprintf("paper: averaged config achieves 59%%/72%% of oracle throughput/fairness (here %.0f%%/%.0f%%)", out.t[3]/tT*100, out.f[3]/fF*100),
		fmt.Sprintf("paper: alternating halves achieve 72%%/81%% (here %.0f%%/%.0f%%)", out.t[4]/tT*100, out.f[4]/fF*100))
}

// averageConfigs rounds the element-wise mean of two configurations and
// repairs it to a valid partition (row sums restored, 1-unit floor kept).
func averageConfigs(space *resource.Space, a, b resource.Config) resource.Config {
	out := space.NewConfig()
	for r, row := range out.Alloc {
		sum := 0
		for j := range row {
			row[j] = max(int(math.Round(float64(a.Alloc[r][j]+b.Alloc[r][j])/2)), 1)
			sum += row[j]
		}
		// Repair the row sum by adjusting the largest/smallest cells
		// (the first such cell on ties).
		for ; sum > space.Resources[r].Units; sum-- {
			k := 0
			for i, x := range row {
				if x > row[k] {
					k = i
				}
			}
			if row[k] <= 1 {
				break
			}
			row[k]--
		}
		for ; sum < space.Resources[r].Units; sum++ {
			k := 0
			for i, x := range row {
				if x < row[k] {
					k = i
				}
			}
			row[k]++
		}
	}
	return out
}

// configPair is a move between two pool configurations and what it does
// to each goal, in percent.
type configPair struct {
	dT, dF float64
	a, b   int
}

// measureFig3 searches sampled configuration pairs at two phase states
// for the clearest example of the same throughput gain costing fairness
// at one instant (the first pair returned) and improving it at another
// (the second); it returns nil when no pair qualifies.
func measureFig3(opt ExpOptions) ([]configPair, error) {
	s, err := motivationSim(opt)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(opt.Seed)
	pool := s.Space().RandomDistinct(rng, 120)
	pool = append(pool, s.Space().EqualSplit())

	snapshot := func() []configPair {
		ts := make([]float64, len(pool))
		fs := make([]float64, len(pool))
		// Scoring is a pure read of the simulator's current phase state,
		// so the pool fans out; forEach writes index-addressed slots and
		// scoreConfig never fails, making the result order-independent.
		_ = forEach(opt.Workers, len(pool), func(i int) error {
			ts[i], fs[i] = scoreConfig(s, pool[i])
			return nil
		})
		var out []configPair
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				dT := (ts[j] - ts[i]) / math.Max(ts[i], 1e-9) * 100
				dF := (fs[j] - fs[i]) / math.Max(fs[i], 1e-9) * 100
				out = append(out, configPair{dT: dT, dF: dF, a: i, b: j})
			}
		}
		return out
	}

	pairs1 := snapshot()
	for i := 0; i < opt.Ticks/2; i++ {
		s.Step()
	}
	pairs2 := snapshot()

	// Find the pair-of-pairs with closest throughput deltas (both
	// meaningful, >2%) and the most opposite fairness deltas.
	var out []configPair
	bestScore := math.Inf(-1)
	for _, x := range pairs1 {
		if x.dT < 2 || x.dF >= 0 {
			continue // want: throughput up, fairness down at Δt1
		}
		for _, y := range pairs2 {
			if y.dT < 2 || y.dF <= 0 {
				continue // want: throughput up, fairness ALSO up at Δt2
			}
			score := -math.Abs(x.dT-y.dT) + math.Min(-x.dF, y.dF)
			if score > bestScore {
				bestScore = score
				out = []configPair{x, y}
			}
		}
	}
	return out, nil
}

func renderFig3(rep *Report, out []configPair) {
	if out == nil {
		rep.Notes = append(rep.Notes, "no qualifying configuration pairs found at this scale; increase Ticks")
		return
	}
	tbl := trace.NewTable("instant", "config pair", "Δthroughput", "Δfairness")
	for i, p := range out {
		tbl.AddRow(fmt.Sprintf("Δt%d", i+1), fmt.Sprintf("C%d→C%d", p.a, p.b), fmt.Sprintf("%+.1f%%", p.dT), fmt.Sprintf("%+.1f%%", p.dF))
	}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"at Δt1 the throughput gain costs fairness; at Δt2 a similar throughput gain also improves fairness",
		"prioritizing throughput at Δt2 and fairness at Δt1 yields a net gain — Observation 3 of the paper")
}
