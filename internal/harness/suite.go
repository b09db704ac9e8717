package harness

import (
	"fmt"
	"sort"

	"satori/internal/metrics"
	"satori/internal/policies/oracle"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// MixScore is one policy's result on one job mix, normalized by the
// Balanced Oracle run on the same mix — the "% of Balanced Oracle"
// presentation used throughout Sec. V.
type MixScore struct {
	// MixIndex identifies the job mix.
	MixIndex int
	// MixNames are the co-located benchmarks.
	MixNames []string
	// PctThroughput and PctFairness are the policy's run-average
	// normalized throughput/fairness as a fraction of the Balanced
	// Oracle's (1.0 = oracle-equal).
	PctThroughput float64
	PctFairness   float64
	// PctWorst is the worst job's speedup as a fraction of the
	// oracle's worst-job speedup (Fig. 9).
	PctWorst float64
	// Raw is the underlying result.
	Raw *Result
}

// SuiteResult holds every policy's scores across a mix set.
type SuiteResult struct {
	// Policies preserves the requested policy order.
	Policies []string
	// Scores maps policy name to per-mix scores (mix order).
	Scores map[string][]MixScore
	// OracleRaw holds the Balanced Oracle reference results per mix.
	OracleRaw []*Result
}

// SuiteSpec describes a mix-set experiment.
type SuiteSpec struct {
	// Mixes are the job mixes to run (e.g. workloads.PaperMixes).
	Mixes []workloads.Mix
	// Policies are the strategies under test.
	Policies []NamedFactory
	// Base carries shared run parameters (Ticks, Seed, Metrics,
	// NoiseSigma, Machine...). Policy and Profiles are overwritten.
	Base RunSpec
	// Workers bounds the fan-out over the suite's independent run
	// units (every mix × policy cell plus the per-mix oracle
	// reference): 0 = one worker per CPU, 1 = serial. Results are
	// byte-identical to the serial path for any worker count.
	Workers int
	// Cache, when non-nil, memoizes each cell's Result on disk keyed by
	// a content hash of the cell's full specification (see CellCache).
	// Cache hits are bit-identical to the runs they replace, so cached
	// and uncached suites produce the same bytes. Opt-in: golden
	// regeneration and tests run uncached by default.
	Cache *CellCache
}

// RunSuite runs every policy on every mix plus the Balanced Oracle
// reference, and returns oracle-normalized scores.
func RunSuite(spec SuiteSpec) (*SuiteResult, error) {
	if len(spec.Mixes) == 0 {
		return nil, fmt.Errorf("harness: no mixes to run")
	}
	if len(spec.Policies) == 0 {
		return nil, fmt.Errorf("harness: no policies to run")
	}
	out := &SuiteResult{Scores: make(map[string][]MixScore)}
	for _, nf := range spec.Policies {
		out.Policies = append(out.Policies, nf.Name)
	}
	// The oracle must optimize the same objective formulas the
	// experiment scores with.
	oracleOpts := oracle.Options{
		ThroughputMetric: spec.Base.Metrics.Throughput,
		FairnessMetric:   spec.Base.Metrics.Fairness,
	}

	// Every run unit — the Balanced Oracle reference plus each policy,
	// per mix — is independent and reproducible from its own seed, so
	// the units fan out over a bounded worker pool. cellSpec derives
	// the exact RunSpec the serial loop used, and results land in
	// index-addressed slots so the aggregation below walks mixes and
	// policies in declared order regardless of completion order.
	cellSpec := func(mix workloads.Mix, factory PolicyFactory) RunSpec {
		rs := spec.Base
		rs.Profiles = mix.Profiles
		rs.Seed = spec.Base.Seed ^ uint64(mix.Index)*0x9E37
		rs.Policy = factory
		return rs
	}
	runCell := func(rs RunSpec, policyID string) (*Result, error) {
		if spec.Cache != nil {
			return spec.Cache.Run(rs, policyID)
		}
		return Run(rs)
	}
	// The oracle reference's identity must capture its search options —
	// two suites with different oracle tunings are different cells.
	oracleID := fmt.Sprintf("oracle:balanced|%+v", oracleOpts)
	nPol := len(spec.Policies)
	perMix := nPol + 1 // unit 0 of each mix is the oracle reference
	results := make([]*Result, len(spec.Mixes)*perMix)
	err := forEach(spec.Workers, len(results), func(u int) error {
		mix := spec.Mixes[u/perMix]
		var err error
		if p := u%perMix - 1; p < 0 {
			results[u], err = runCell(cellSpec(mix, OracleFactory(oracle.Balanced, oracleOpts)), oracleID)
			if err != nil {
				return fmt.Errorf("harness: oracle on mix %d: %w", mix.Index, err)
			}
		} else {
			results[u], err = runCell(cellSpec(mix, spec.Policies[p].Factory), "policy:"+spec.Policies[p].Name)
			if err != nil {
				return fmt.Errorf("harness: %s on mix %d: %w", spec.Policies[p].Name, mix.Index, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for m, mix := range spec.Mixes {
		oracleRes := results[m*perMix]
		out.OracleRaw = append(out.OracleRaw, oracleRes)
		for p, nf := range spec.Policies {
			res := results[m*perMix+1+p]
			out.Scores[nf.Name] = append(out.Scores[nf.Name], MixScore{
				MixIndex:      mix.Index,
				MixNames:      mix.Names(),
				PctThroughput: ratio(res.MeanThroughput, oracleRes.MeanThroughput),
				PctFairness:   ratio(res.MeanFairness, oracleRes.MeanFairness),
				PctWorst:      ratio(res.MeanWorstSpeedup, oracleRes.MeanWorstSpeedup),
				Raw:           res,
			})
		}
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// Mean aggregates one policy's scores across mixes.
type Mean struct {
	PctThroughput, PctFairness, PctWorst float64
}

// Means returns the across-mix averages per policy (Fig. 7/12/13).
func (s *SuiteResult) Means() map[string]Mean {
	out := make(map[string]Mean, len(s.Policies))
	for name, scores := range s.Scores {
		var t, f, w []float64
		for _, sc := range scores {
			t = append(t, sc.PctThroughput)
			f = append(f, sc.PctFairness)
			w = append(w, sc.PctWorst)
		}
		out[name] = Mean{
			PctThroughput: stats.Mean(t),
			PctFairness:   stats.Mean(f),
			PctWorst:      stats.Mean(w),
		}
	}
	return out
}

// SortedByPolicy returns one policy's mix scores sorted ascending by the
// chosen key ("throughput" or "fairness") — the presentation of
// Figs. 8/10/11, which sort mixes by SATORI's performance.
func (s *SuiteResult) SortedByPolicy(name, key string) []MixScore {
	scores := append([]MixScore(nil), s.Scores[name]...)
	sort.Slice(scores, func(i, j int) bool {
		if key == "fairness" {
			return scores[i].PctFairness < scores[j].PctFairness
		}
		return scores[i].PctThroughput < scores[j].PctThroughput
	})
	return scores
}

// MixOrder returns mix indices sorted by the named policy's throughput
// score, so other policies' rows can be presented in the same order.
func (s *SuiteResult) MixOrder(name string) []int {
	scores := s.SortedByPolicy(name, "throughput")
	out := make([]int, len(scores))
	for i, sc := range scores {
		out[i] = sc.MixIndex
	}
	return out
}

// ScoreFor returns the named policy's score on a mix index.
func (s *SuiteResult) ScoreFor(name string, mixIndex int) (MixScore, bool) {
	for _, sc := range s.Scores[name] {
		if sc.MixIndex == mixIndex {
			return sc, true
		}
	}
	return MixScore{}, false
}

// DefaultSuiteBase returns the standard run parameters used by the
// figure reproductions: 60 s runs at 10 Hz on the default machine with
// the paper's default metrics (sum-of-IPS normalized throughput +
// Jain's index, Sec. IV; the speedup geomean and 1−CoV alternatives are
// available via Metrics).
func DefaultSuiteBase(seed uint64, ticks int) RunSpec {
	if ticks <= 0 {
		ticks = 600
	}
	m := sim.DefaultMachine()
	return RunSpec{
		Machine: &m,
		Ticks:   ticks,
		Seed:    seed,
		Metrics: DefaultMetrics(),
	}
}

// DefaultMetrics returns the paper's default objective pairing (Sec. IV):
// sum of instructions per second (normalized by the isolated sum) for
// throughput and Jain's index for fairness.
func DefaultMetrics() MetricSet {
	return MetricSet{Throughput: metrics.SumIPS, Fairness: metrics.JainIndex}
}
