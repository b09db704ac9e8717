package harness

import (
	"fmt"

	"satori/internal/stats"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// ReplicatedMean is one policy's across-seed aggregate: the mean of its
// across-mix means, with 95% confidence half-widths.
type ReplicatedMean struct {
	PctThroughput, ThroughputCI float64
	PctFairness, FairnessCI     float64
	Seeds                       int
}

// ReplicateSuite runs the same suite under several seeds and aggregates
// each policy's oracle-normalized means with confidence intervals. All of
// the reproduction's single-seed gaps that EXPERIMENTS.md labels "within
// noise" can be checked against these intervals.
//
// Seeds fan out over spec.Workers (0 = all CPUs, 1 = serial); the worker
// budget is split between the seed level and each seed's suite so nested
// fan-outs stay bounded. Every seed's suite is independent, and the
// per-policy series are assembled in seed order, so the result is
// byte-identical to the serial path.
func ReplicateSuite(spec SuiteSpec, seeds []uint64) (map[string]ReplicatedMean, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("harness: ReplicateSuite needs at least one seed")
	}
	outer, inner := splitWorkers(spec.Workers, len(seeds))
	suites := make([]*SuiteResult, len(seeds))
	err := forEach(outer, len(seeds), func(i int) error {
		s := spec
		s.Base.Seed = seeds[i]
		s.Workers = inner
		res, err := RunSuite(s)
		if err != nil {
			return fmt.Errorf("harness: seed %d: %w", seeds[i], err)
		}
		suites[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	perPolicyT := map[string][]float64{}
	perPolicyF := map[string][]float64{}
	for _, res := range suites {
		for name, m := range res.Means() {
			perPolicyT[name] = append(perPolicyT[name], m.PctThroughput)
			perPolicyF[name] = append(perPolicyF[name], m.PctFairness)
		}
	}
	out := make(map[string]ReplicatedMean, len(perPolicyT))
	for name := range perPolicyT {
		mt, ct := stats.MeanCI95(perPolicyT[name])
		mf, cf := stats.MeanCI95(perPolicyF[name])
		out[name] = ReplicatedMean{
			PctThroughput: mt, ThroughputCI: ct,
			PctFairness: mf, FairnessCI: cf,
			Seeds: len(seeds),
		}
	}
	return out, nil
}

// replicationSeeds derives the five seeds a replicated measurement runs
// under from the experiment's base seed.
func replicationSeeds(seed uint64) []uint64 {
	return []uint64{seed, seed ^ 0xA5A5, seed ^ 0x0F0F7733, seed * 31, seed*7 + 13}
}

func measureReplication(opt ExpOptions) (map[string]ReplicatedMean, error) {
	spec, err := suiteSpec(opt, workloads.SuitePARSEC, 8, CompetingPolicies())
	if err != nil {
		return nil, err
	}
	return ReplicateSuite(spec, replicationSeeds(opt.Seed))
}

func renderReplication(rep *Report, means map[string]ReplicatedMean) {
	tbl := trace.NewTable("policy", "throughput %oracle (±95% CI)", "fairness %oracle (±95% CI)")
	for _, nf := range CompetingPolicies() {
		m := means[nf.Name]
		tbl.AddRow(nf.Name,
			fmt.Sprintf("%.1f%% ± %.1f", m.PctThroughput*100, m.ThroughputCI*100),
			fmt.Sprintf("%.1f%% ± %.1f", m.PctFairness*100, m.FairnessCI*100))
	}
	rep.Tables = append(rep.Tables, tbl)
	sat, par := means["satori"], means["parties"]
	sep := sat.PctThroughput - sat.ThroughputCI - (par.PctThroughput + par.ThroughputCI)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("SATORI−PARTIES throughput gap is %sseparated at 95%% confidence (interval gap %+.1f pts)",
			map[bool]string{true: "", false: "NOT "}[sep > 0], sep*100))
}
