package harness

import (
	"fmt"

	"satori/internal/control"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// RunSLO measures violation-driven goal switching on a mixed
// batch+latency-critical co-location. Two LC services (memcached-lc,
// search-lc) start at the equal split deep in SLO violation next to
// three PARSEC batch jobs; every policy must discover a partition that
// restores tail-latency attainment. SATORI-SLO (WeightsSLOAware +
// GoalSwitch) scores the fairness channel as SLO attainment while the
// violation persists and pins the throughput weight to its floor —
// sacrificing short-term batch throughput and fairness for long-term
// SLO health — then reverts hysteretically once the detector clears.
// Plain SATORI, static-weight SATORI, PARTIES, and CoPart run the
// identical scenario as baselines.
func RunSLO(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	names := []string{"memcached-lc", "nginx-lc", "canneal", "fluidanimate", "streamcluster"}
	mix := make([]*sim.Profile, len(names))
	for i, n := range names {
		p, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		mix[i] = p
	}

	type outcome struct {
		attainment float64 // mean SLO attainment over the run
		violated   int     // ticks spent in the hysteretic violating state
		recovery   int     // ticks until the trailing window attains (-1 = never)
		objective  float64 // mean 0.5*T + 0.5*F (the batch side of the trade)
	}
	const recoverWin = 10
	const recoverLevel = 0.95
	runOne := func(factory PolicyFactory, sloOpt control.SLOOptions) (outcome, error) {
		loop, _, err := bootSim(sim.DefaultMachine(), mix, sim.Options{Seed: opt.Seed},
			nil, factory, control.Options{SLO: sloOpt})
		if err != nil {
			return outcome{}, err
		}
		var att, obj stats.Welford
		attains := make([]float64, 0, opt.Ticks)
		out := outcome{recovery: -1}
		for tick := 1; tick <= opt.Ticks; tick++ {
			st, err := loop.Step()
			if err != nil {
				return outcome{}, err
			}
			att.Add(st.SLOAttainment)
			obj.Add(0.5*st.Throughput + 0.5*st.Fairness)
			attains = append(attains, st.SLOAttainment)
			if st.SLOViolating {
				out.violated++
			}
			// Recovery: first tick whose trailing window holds mean
			// attainment at the recovered level (0.95; the critical-IPS
			// boundary itself attains 0.99).
			if out.recovery < 0 && tick >= recoverWin {
				sum := 0.0
				for i := tick - recoverWin; i < tick; i++ {
					sum += attains[i]
				}
				if sum/recoverWin >= recoverLevel {
					out.recovery = tick
				}
			}
		}
		out.attainment = att.Mean()
		out.objective = obj.Mean()
		return out, nil
	}

	tbl := trace.NewTable("policy", "slo attainment", "violated ticks", "recovery", "objective")
	for _, r := range lineup("satori-slo", "satori", "satori-static", "parties", "copart") {
		// Only satori-slo arbitrates goals; the baselines run the
		// identical scenario without the switch.
		oc, err := runOne(r.Factory, control.SLOOptions{GoalSwitch: r.Name == "satori-slo"})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		tbl.AddRow(r.Name, trace.F(oc.attainment), fmt.Sprintf("%d", oc.violated), fmtRecovery(oc.recovery), trace.F(oc.objective))
	}
	rep := &Report{ID: "slo", Title: "SLO recovery on a mixed batch+LC co-location (2 LC + 3 PARSEC)"}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		"all policies start at the equal split with both LC services violating their p99 targets",
		"satori-slo switches the fairness goal to SLO attainment and floors the throughput weight while the violation persists, reverting hysteretically after recovery",
		"recovery = first tick whose trailing 10-tick mean attainment reaches 0.95")
	return rep, nil
}
