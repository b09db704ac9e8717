package harness

import (
	"fmt"

	"satori/internal/core"
	"satori/internal/stats"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// fig17Mix returns the job mix the paper uses for its internal-behavior
// figures: blackscholes, canneal, fluidanimate, freqmine, streamcluster —
// which is PARSEC mix 0 in lexicographic order.
func fig17Mix() (workloads.Mix, error) {
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return workloads.Mix{}, err
	}
	return mixes[0], nil
}

// tracedRun executes one traced run of a policy on a mix.
func tracedRun(opt ExpOptions, mix workloads.Mix, factory PolicyFactory) (*Result, error) {
	spec := DefaultSuiteBase(opt.Seed, opt.Ticks)
	spec.Profiles = mix.Profiles
	spec.Policy = factory
	spec.KeepTrace = true
	return Run(spec)
}

// RunFig14 reproduces Fig. 14: (a) the equalization and prioritization
// weight components over time; (b) the benefit of dynamic weight
// re-balancing over static 0.5/0.5 weights across mixes.
func RunFig14(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	mix, err := fig17Mix()
	if err != nil {
		return nil, err
	}
	res, err := tracedRun(opt, mix, SatoriFactory(core.Options{}))
	if err != nil {
		return nil, err
	}
	// (a) weight decomposition timeline.
	timeline := trace.NewTable("time", "W_T", "W_F", "W_TE", "W_TP", "eq-frac")
	step := res.Trace.Len() / 15
	if step < 1 {
		step = 1
	}
	var devs []float64
	for i := 0; i < res.Trace.Len(); i++ {
		wT := res.Trace.At(i, "wT")
		devs = append(devs, wT-0.5)
		if i%step == 0 {
			timeline.AddRow(
				fmt.Sprintf("%.1fs", res.Trace.At(i, "time")),
				trace.F(wT), trace.F(res.Trace.At(i, "wF")),
				trace.F(res.Trace.At(i, "wTE")), trace.F(res.Trace.At(i, "wTP")),
				trace.F(res.Trace.At(i, "eqfrac")))
		}
	}

	// (b) dynamic vs static weights across mixes.
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return nil, err
	}
	mixes = mixes[:opt.limitMixes(len(mixes))]
	suite, err := RunSuite(SuiteSpec{
		Mixes:    mixes,
		Policies: lineup("satori", "satori-static"),
		Base:     DefaultSuiteBase(opt.Seed, opt.Ticks),
		Workers:  opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig14", Title: "Dynamic weight re-balancing (a: components over time, b: benefit vs static weights)"}
	rep.Tables = append(rep.Tables, timeline, meansTable(suite))
	m := suite.Means()
	better := 0
	for _, sc := range suite.Scores["satori"] {
		st, _ := suite.ScoreFor("satori-static", sc.MixIndex)
		if sc.PctThroughput+sc.PctFairness > st.PctThroughput+st.PctFairness {
			better++
		}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("weights deviate from 0.5 by up to %.0f%% (paper: up to 50%%) and average %.3f over the run",
			stats.Max(absAll(devs))/0.5*100, 0.5+stats.Mean(devs)),
		fmt.Sprintf("dynamic beats static on combined score in %d of %d mixes (paper: all mixes, up to +10%%): dynamic T=%.1f%% F=%.1f%% vs static T=%.1f%% F=%.1f%%",
			better, len(mixes),
			m["satori"].PctThroughput*100, m["satori"].PctFairness*100,
			m["satori-static"].PctThroughput*100, m["satori-static"].PctFairness*100))
	return rep, nil
}

func absAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x < 0 {
			x = -x
		}
		out[i] = x
	}
	return out
}

// RunFig15 reproduces Fig. 15: (a) the mean Euclidean distance between
// each policy's applied configuration and the Balanced Oracle's, and
// (b) the distance over time for SATORI vs PARTIES across phase changes.
func RunFig15(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return nil, err
	}
	nMixes := opt.limitMixes(5)
	policies := CompetingPolicies()
	tbl := trace.NewTable("policy", "mean distance", "median distance", "median x of SATORI")
	dists := map[string]float64{}
	medians := map[string]float64{}
	traces := map[string]*trace.Series{}
	// Every (policy, mix) run is independent; fan the grid out and fold
	// the Welford accumulators in mix order afterwards.
	results := make([]*Result, len(policies)*nMixes)
	err = forEach(opt.Workers, len(results), func(u int) error {
		nf := policies[u/nMixes]
		m := u % nMixes
		spec := DefaultSuiteBase(opt.Seed^uint64(m)*0x51D, opt.Ticks)
		spec.Profiles = mixes[m].Profiles
		spec.Policy = nf.Factory
		spec.TrackOracleDistance = true
		spec.KeepTrace = m == 0 // the timeline panel uses mix 0
		res, err := Run(spec)
		if err != nil {
			return fmt.Errorf("harness: %s on mix %d: %w", nf.Name, m, err)
		}
		results[u] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, nf := range policies {
		var acc, accMed stats.Welford
		for m := 0; m < nMixes; m++ {
			res := results[p*nMixes+m]
			acc.Add(res.MeanOracleDistance)
			accMed.Add(res.MedianOracleDistance)
			if res.Trace != nil {
				traces[nf.Name] = res.Trace
			}
		}
		dists[nf.Name] = acc.Mean()
		medians[nf.Name] = accMed.Mean()
	}
	for _, nf := range policies {
		ratio := 0.0
		if medians["satori"] > 0 {
			ratio = medians[nf.Name] / medians["satori"]
		}
		tbl.AddRow(nf.Name, trace.F(dists[nf.Name]), trace.F(medians[nf.Name]), fmt.Sprintf("%.2fx", ratio))
	}

	// (b) distance over time, SATORI vs PARTIES.
	timeline := trace.NewTable("time", "satori", "parties")
	sat, par := traces["satori"], traces["parties"]
	n := sat.Len()
	if par.Len() < n {
		n = par.Len()
	}
	step := n / 15
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		timeline.AddRow(fmt.Sprintf("%.1fs", sat.At(i, "time")),
			trace.F(sat.At(i, "oracledist")), trace.F(par.At(i, "oracledist")))
	}
	rep := &Report{ID: "fig15", Title: "Configuration proximity to the Balanced Oracle (PARSEC mix 0)"}
	rep.Tables = append(rep.Tables, tbl, timeline)
	rep.Notes = append(rep.Notes,
		"paper: SATORI's configurations are the closest to the Balanced Oracle; competing techniques sit at >=1.3x SATORI's distance",
		"the timeline shows SATORI re-approaching the (moving) oracle configuration faster than PARTIES after phase changes")
	return rep, nil
}

// RunFig16 reproduces Fig. 16: sensitivity of SATORI's performance to the
// prioritization period T_P and the equalization period T_E.
func RunFig16(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return nil, err
	}
	limit := opt.limitMixes(3) // 3 mixes suffice for the trend
	mixes = mixes[:limit]

	runWith := func(tp, te, workers int) (Mean, error) {
		suite, err := RunSuite(SuiteSpec{
			Mixes: mixes,
			Policies: []NamedFactory{{
				Name: "satori",
				Factory: SatoriFactory(core.Options{Scheduler: core.SchedulerOptions{
					PrioritizationTicks: tp, EqualizationTicks: te,
				}}),
			}},
			Base:    DefaultSuiteBase(opt.Seed, opt.Ticks),
			Workers: workers,
		})
		if err != nil {
			return Mean{}, err
		}
		return suite.Means()["satori"], nil
	}

	// Both sweeps fan out over their period values; each point's suite
	// gets the remaining worker budget.
	tps := []int{5, 10, 20, 50, 100}
	tes := []int{50, 100, 200, 300, 600}
	tpMeans := make([]Mean, len(tps))
	teMeans := make([]Mean, len(tes))
	outer, inner := splitWorkers(opt.Workers, len(tps)+len(tes))
	err = forEach(outer, len(tps)+len(tes), func(i int) error {
		var err error
		if i < len(tps) {
			tpMeans[i], err = runWith(tps[i], 100, inner)
		} else {
			teMeans[i-len(tps)], err = runWith(10, tes[i-len(tps)], inner)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	tpTable := trace.NewTable("prioritization period", "throughput %oracle", "fairness %oracle")
	for i, tp := range tps {
		tpTable.AddRow(fmt.Sprintf("%.1fs", float64(tp)*0.1), trace.Pct(tpMeans[i].PctThroughput), trace.Pct(tpMeans[i].PctFairness))
	}
	teTable := trace.NewTable("equalization period", "throughput %oracle", "fairness %oracle")
	for i, te := range tes {
		teTable.AddRow(fmt.Sprintf("%.0fs", float64(te)*0.1), trace.Pct(teMeans[i].PctThroughput), trace.Pct(teMeans[i].PctFairness))
	}
	rep := &Report{ID: "fig16", Title: "Sensitivity to T_P (top, T_E=10s) and T_E (bottom, T_P=1s)"}
	rep.Tables = append(rep.Tables, tpTable, teTable)
	rep.Notes = append(rep.Notes,
		"paper: low sensitivity in a wide range; degradation only for very long periods (T_P > 5s, T_E > 30s)")
	return rep, nil
}

// RunFig17 reproduces Fig. 17: (a) the objective value over time for
// SATORI vs SATORI-without-prioritization, and (b) the % change of the
// proxy model between iterations for both.
func RunFig17(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	mix, err := fig17Mix()
	if err != nil {
		return nil, err
	}
	dyn, err := tracedRun(opt, mix, SatoriFactory(core.Options{}))
	if err != nil {
		return nil, err
	}
	static, err := tracedRun(opt, mix, SatoriStaticFactory(0.5))
	if err != nil {
		return nil, err
	}
	tbl := trace.NewTable("time", "objective (satori)", "objective (static)", "proxy Δ% (satori)", "proxy Δ% (static)")
	n := dyn.Trace.Len()
	if static.Trace.Len() < n {
		n = static.Trace.Len()
	}
	step := n / 15
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		tbl.AddRow(fmt.Sprintf("%.1fs", dyn.Trace.At(i, "time")),
			trace.F(dyn.Trace.At(i, "satobj")), trace.F(static.Trace.At(i, "satobj")),
			trace.F(dyn.Trace.At(i, "proxychange")), trace.F(static.Trace.At(i, "proxychange")))
	}
	dynObj := stats.Mean(dyn.Trace.Column("satobj"))
	staObj := stats.Mean(static.Trace.Column("satobj"))
	dynProxy := stats.Mean(dyn.Trace.Column("proxychange"))
	staProxy := stats.Mean(static.Trace.Column("proxychange"))
	rep := &Report{ID: "fig17", Title: "Objective value and proxy-model change over time (blackscholes/canneal/fluidanimate/freqmine/streamcluster)"}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("mean objective: satori %.3f vs static %.3f (paper: dynamic achieves higher objective values)", dynObj, staObj),
		fmt.Sprintf("mean proxy-model change per iteration: satori %.2f%% vs static %.2f%% (paper: similar ranges — the moving goal post does not destabilize the BO engine)", dynProxy, staProxy))
	return rep, nil
}

// RunFig18 reproduces Fig. 18: the variation of the observed throughput
// and fairness is similar with and without dynamic prioritization, while
// the mean level is higher with it.
func RunFig18(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	mix, err := fig17Mix()
	if err != nil {
		return nil, err
	}
	dyn, err := tracedRun(opt, mix, SatoriFactory(core.Options{}))
	if err != nil {
		return nil, err
	}
	static, err := tracedRun(opt, mix, SatoriStaticFactory(0.5))
	if err != nil {
		return nil, err
	}
	tbl := trace.NewTable("variant", "mean T", "std T", "mean F", "std F")
	tbl.AddRow("satori", trace.F(dyn.MeanThroughput), trace.F(dyn.StdThroughput),
		trace.F(dyn.MeanFairness), trace.F(dyn.StdFairness))
	tbl.AddRow("satori w/o prioritization", trace.F(static.MeanThroughput), trace.F(static.StdThroughput),
		trace.F(static.MeanFairness), trace.F(static.StdFairness))
	rep := &Report{ID: "fig18", Title: "Observed-performance variation with and without dynamic prioritization"}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"paper: SATORI's curve sits above the no-prioritization curve with similar tick-to-tick variation")
	return rep, nil
}

// RunFig19 reproduces Fig. 19: prioritizing the weaker-performing goal
// (SATORI's Eq. 4) reaches higher levels of both goals than prioritizing
// the stronger one.
func RunFig19(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return nil, err
	}
	mixes = mixes[:opt.limitMixes(5)]
	suite, err := RunSuite(SuiteSpec{
		Mixes: mixes,
		Policies: []NamedFactory{
			{Name: "satori (prioritize weaker)", Factory: SatoriFactory(core.Options{})},
			{Name: "prioritize stronger", Factory: SatoriFactory(core.Options{
				Scheduler: core.SchedulerOptions{Mode: core.WeightsFavorStronger}})},
		},
		Base:    DefaultSuiteBase(opt.Seed, opt.Ticks),
		Workers: opt.Workers,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig19", Title: "Prioritizing the weaker goal vs the stronger goal"}
	rep.Tables = append(rep.Tables, meansTable(suite))
	m := suite.Means()
	dw := m["satori (prioritize weaker)"]
	ds := m["prioritize stronger"]
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("combined-score advantage of prioritizing the weaker goal: %+.1f%% points (paper: ~5%%)",
			((dw.PctThroughput+dw.PctFairness)-(ds.PctThroughput+ds.PctFairness))/2*100))
	return rep, nil
}
