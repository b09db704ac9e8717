package harness

import (
	"fmt"

	"satori/internal/trace"
	"satori/internal/workloads"
)

// fullLineup is the Fig. 7 policy list: all competing techniques, the
// single-goal SATORI variants, and the single-goal oracles (everything
// normalized to the Balanced Oracle).
func fullLineup() []NamedFactory {
	return append(CompetingPolicies(),
		lineup("satori-throughput", "satori-fairness", "throughput-oracle", "fairness-oracle")...)
}

// runSuiteExperiment runs a full policy lineup over a suite's paper
// mixes.
func runSuiteExperiment(opt ExpOptions, suite string, policies []NamedFactory) (*SuiteResult, []workloads.Mix, error) {
	mixes, err := workloads.PaperMixes(suite)
	if err != nil {
		return nil, nil, err
	}
	mixes = mixes[:opt.limitMixes(len(mixes))]
	res, err := RunSuite(SuiteSpec{
		Mixes:    mixes,
		Policies: policies,
		Base:     DefaultSuiteBase(opt.Seed, opt.Ticks),
		Workers:  opt.Workers,
		Cache:    opt.Cache,
	})
	return res, mixes, err
}

// suiteOracleNote summarizes the oracle reference levels.
func suiteOracleNote(res *SuiteResult) string {
	var t, f float64
	for _, r := range res.OracleRaw {
		t += r.MeanThroughput
		f += r.MeanFairness
	}
	n := float64(len(res.OracleRaw))
	return fmt.Sprintf("Balanced Oracle reference (absolute, run-mean): throughput %.3f, fairness %.3f", t/n, f/n)
}

// RunFig7 reproduces Fig. 7: average throughput and fairness of every
// technique as % of the Balanced Oracle over the PARSEC mixes.
func RunFig7(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	res, _, err := runSuiteExperiment(opt, workloads.SuitePARSEC, fullLineup())
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig7", Title: "Average throughput and fairness vs Balanced Oracle (PARSEC)"}
	rep.Tables = append(rep.Tables, meansTable(res))
	rep.Notes = append(rep.Notes,
		suiteOracleNote(res),
		"paper shape: SATORI > PARTIES > CoPart ≈ dCAT > Random on both goals; SATORI ~92% of the Balanced Oracle; single-goal SATORI variants approach the single-goal oracles")
	return rep, nil
}

// RunFig8 reproduces Fig. 8: per-mix throughput and fairness for all 21
// PARSEC mixes, sorted by SATORI's throughput score.
func RunFig8(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	res, _, err := runSuiteExperiment(opt, workloads.SuitePARSEC, CompetingPolicies())
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig8", Title: "Per-mix throughput and fairness, % of Balanced Oracle (PARSEC)"}
	rep.Tables = append(rep.Tables,
		perMixTable(res, "satori", func(s MixScore) float64 { return s.PctThroughput }),
		perMixTable(res, "satori", func(s MixScore) float64 { return s.PctFairness }))
	rep.Notes = append(rep.Notes, "first table: throughput; second table: fairness; mixes sorted ascending by SATORI throughput")
	return rep, nil
}

// RunFig9 reproduces Fig. 9: the worst-performing job in each mix under
// every technique, and the across-mix average.
func RunFig9(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	res, _, err := runSuiteExperiment(opt, workloads.SuitePARSEC, CompetingPolicies())
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig9", Title: "Worst-performing job per mix, % of Balanced Oracle's worst job (PARSEC)"}
	rep.Tables = append(rep.Tables,
		perMixTable(res, "satori", func(s MixScore) float64 { return s.PctWorst }))
	means := res.Means()
	avg := trace.NewTable("policy", "mean worst-job %oracle")
	for _, name := range res.Policies {
		avg.AddRow(name, trace.Pct(means[name].PctWorst))
	}
	rep.Tables = append(rep.Tables, avg)
	rep.Notes = append(rep.Notes, "paper: SATORI's worst job averages 87% of the Balanced Oracle and leads the baselines")
	return rep, nil
}

// RunFig10 reproduces Fig. 10: per-mix results for CloudSuite (10 mixes
// of 3 jobs).
func RunFig10(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	res, _, err := runSuiteExperiment(opt, workloads.SuiteCloudSuite, CompetingPolicies())
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig10", Title: "Per-mix throughput and fairness, % of Balanced Oracle (CloudSuite)"}
	rep.Tables = append(rep.Tables,
		perMixTable(res, "satori", func(s MixScore) float64 { return s.PctThroughput }),
		perMixTable(res, "satori", func(s MixScore) float64 { return s.PctFairness }))
	return rep, nil
}

// RunFig11 reproduces Fig. 11: per-mix results for ECP (10 mixes of 2
// jobs).
func RunFig11(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	res, _, err := runSuiteExperiment(opt, workloads.SuiteECP, CompetingPolicies())
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig11", Title: "Per-mix throughput and fairness, % of Balanced Oracle (ECP)"}
	rep.Tables = append(rep.Tables,
		perMixTable(res, "satori", func(s MixScore) float64 { return s.PctThroughput }),
		perMixTable(res, "satori", func(s MixScore) float64 { return s.PctFairness }))
	rep.Notes = append(rep.Notes, "paper: lowest gain on the minife+swfft mix (both LLC-hungry), best on amg+hypre (similar demands)")
	return rep, nil
}

// RunFig12 reproduces Fig. 12: CloudSuite suite averages.
func RunFig12(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	res, _, err := runSuiteExperiment(opt, workloads.SuiteCloudSuite, fullLineup())
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig12", Title: "Average throughput and fairness vs Balanced Oracle (CloudSuite)"}
	rep.Tables = append(rep.Tables, meansTable(res))
	rep.Notes = append(rep.Notes, suiteOracleNote(res),
		"paper: SATORI beats PARTIES by 9% (throughput) and 5% (fairness) on CloudSuite")
	return rep, nil
}

// RunFig13 reproduces Fig. 13: ECP suite averages.
func RunFig13(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	res, _, err := runSuiteExperiment(opt, workloads.SuiteECP, fullLineup())
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig13", Title: "Average throughput and fairness vs Balanced Oracle (ECP)"}
	rep.Tables = append(rep.Tables, meansTable(res))
	rep.Notes = append(rep.Notes, suiteOracleNote(res),
		"paper: SATORI beats PARTIES by 15% on both goals for ECP")
	return rep, nil
}
