package harness

import (
	"fmt"
	"math"

	"satori/internal/core"
	"satori/internal/stats"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// renderFig14Weights is Fig. 14(a): the weight decomposition timeline of
// one traced SATORI run.
func renderFig14Weights(rep *Report, runs []*Result) {
	tr := runs[0].Trace
	rep.Tables = append(rep.Tables, timeline([]string{"time", "W_T", "W_F", "W_TE", "W_TP", "eq-frac"}, tr.Column("time"),
		tr.Column("wT"), tr.Column("wF"), tr.Column("wTE"), tr.Column("wTP"), tr.Column("eqfrac")))
	var devs []float64
	maxDev := 0.0
	for _, wT := range tr.Column("wT") {
		devs = append(devs, wT-0.5)
		maxDev = math.Max(maxDev, math.Abs(wT-0.5))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("weights deviate from 0.5 by up to %.0f%% (paper: up to 50%%) and average %.3f over the run",
			maxDev/0.5*100, 0.5+stats.Mean(devs)))
}

// fig14Benefit is Fig. 14(b): dynamic vs static weights across mixes.
func fig14Benefit(suite *SuiteResult) []string {
	m := suite.Means()
	better := 0
	for _, sc := range suite.Scores["satori"] {
		st, _ := suite.ScoreFor("satori-static", sc.MixIndex)
		if sc.PctThroughput+sc.PctFairness > st.PctThroughput+st.PctFairness {
			better++
		}
	}
	return []string{fmt.Sprintf("dynamic beats static on combined score in %d of %d mixes (paper: all mixes, up to +10%%): dynamic T=%.1f%% F=%.1f%% vs static T=%.1f%% F=%.1f%%",
		better, len(suite.Scores["satori"]),
		m["satori"].PctThroughput*100, m["satori"].PctFairness*100,
		m["satori-static"].PctThroughput*100, m["satori-static"].PctFairness*100)}
}

// fig15Outcome holds each policy's configuration distance to the
// Balanced Oracle, averaged over mixes, and the mix-0 traces of the
// timeline panel.
type fig15Outcome struct {
	mean, median map[string]float64
	traces       map[string]*trace.Series
}

func measureFig15(opt ExpOptions) (fig15Outcome, error) {
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return fig15Outcome{}, err
	}
	nMixes := opt.limitMixes(5)
	policies := CompetingPolicies()
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
		return fig15Outcome{}, err
	}
	out := fig15Outcome{mean: map[string]float64{}, median: map[string]float64{}, traces: map[string]*trace.Series{}}
	for p, nf := range policies {
		var acc, accMed stats.Welford
		for _, res := range results[p*nMixes : (p+1)*nMixes] {
			acc.Add(res.MeanOracleDistance)
			accMed.Add(res.MedianOracleDistance)
		}
		out.mean[nf.Name] = acc.Mean()
		out.median[nf.Name] = accMed.Mean()
		out.traces[nf.Name] = results[p*nMixes].Trace
	}
	return out, nil
}

func renderFig15(rep *Report, out fig15Outcome) {
	tbl := trace.NewTable("policy", "mean distance", "median distance", "median x of SATORI")
	for _, nf := range CompetingPolicies() {
		name, ratio := nf.Name, 0.0
		if out.median["satori"] > 0 {
			ratio = out.median[name] / out.median["satori"]
		}
		tbl.AddRow(name, trace.F(out.mean[name]), trace.F(out.median[name]), fmt.Sprintf("%.2fx", ratio))
	}
	// (b) distance over time, SATORI vs PARTIES.
	sat, par := out.traces["satori"], out.traces["parties"]
	rep.Tables = append(rep.Tables, tbl, timeline([]string{"time", "satori", "parties"}, sat.Column("time"),
		sat.Column("oracledist"), par.Column("oracledist")))
}

// fig16Axis is one panel of Fig. 16: a sweep of one scheduler period
// over values (in ticks) while sched holds the other at its default.
func fig16Axis(name, labelFormat string, values []int, sched func(ticks int) core.SchedulerOptions) sweepRow {
	return sweepRow{limit: 3, header: []string{name, "throughput %oracle", "fairness %oracle"}, cells: pctCells,
		points: func(ExpOptions) ([]sweepPoint, error) {
			pts := make([]sweepPoint, len(values))
			for i, v := range values {
				// Each period is its own policy identity, so cached cells
				// of different points never alias.
				lineup := variants(core.Options{Name: fmt.Sprintf("satori, %s %d", name, v), Scheduler: sched(v)})
				pts[i] = sweepPoint{fmt.Sprintf(labelFormat, float64(v)*0.1), func(spec *SuiteSpec) { spec.Policies = lineup }}
			}
			return pts, nil
		}}
}

// renderFig17 renders runs = (satori, satori-static).
func renderFig17(rep *Report, runs []*Result) {
	dyn, static := runs[0].Trace, runs[1].Trace
	rep.Tables = append(rep.Tables, timeline(
		[]string{"time", "objective (satori)", "objective (static)", "proxy Δ% (satori)", "proxy Δ% (static)"}, dyn.Column("time"),
		dyn.Column("satobj"), static.Column("satobj"), dyn.Column("proxychange"), static.Column("proxychange")))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("mean objective: satori %.3f vs static %.3f (paper: dynamic achieves higher objective values)",
			stats.Mean(dyn.Column("satobj")), stats.Mean(static.Column("satobj"))),
		fmt.Sprintf("mean proxy-model change per iteration: satori %.2f%% vs static %.2f%% (paper: similar ranges — the moving goal post does not destabilize the BO engine)",
			stats.Mean(dyn.Column("proxychange")), stats.Mean(static.Column("proxychange"))))
}

// renderFig18 renders runs = (satori, satori-static).
func renderFig18(rep *Report, runs []*Result) {
	tbl := trace.NewTable("variant", "mean T", "std T", "mean F", "std F")
	for i, label := range []string{"satori", "satori w/o prioritization"} {
		r := runs[i]
		tbl.AddRow(label, trace.F(r.MeanThroughput), trace.F(r.StdThroughput), trace.F(r.MeanFairness), trace.F(r.StdFairness))
	}
	rep.Tables = append(rep.Tables, tbl)
}
