package harness

import (
	"slices"

	"satori/internal/core"
	"satori/internal/resource"
	"satori/internal/sim"
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

// variants builds a line-up of SATORI engines that differ only in their
// options; each option set's Name is its table label and cell-cache
// identity.
func variants(opts ...core.Options) []NamedFactory {
	out := make([]NamedFactory, len(opts))
	for i, o := range opts {
		out[i] = NamedFactory{Name: o.Name, Factory: SatoriFactory(o)}
	}
	return out
}

// tables lists a suite row's renderers.
type tables = []func(*SuiteResult) *trace.Table

// experimentTable is the only description of the reproduction surface:
// every figure, textual result and ablation is one row. Rows are ordered
// as in the paper.
func experimentTable() []row {
	const parsec, cloud, ecp = workloads.SuitePARSEC, workloads.SuiteCloudSuite, workloads.SuiteECP
	return []row{
		// Fig. 1: the throughput-optimal configuration is tracked over
		// time while the jobs run under it — each job's share of every
		// resource at sampled instants, plus how often and how far the
		// optimum moved (Sec. II, Observation 1).
		{"fig1", "Optimal-throughput configuration over time (PARSEC mix 0, job 0's shares)",
			oneOff[fig1Outcome]{measureFig1, renderFig1},
			[]string{"paper observation: the optimum changes by more than 20% during a run; reproduced if the share columns move over time"}},
		// Fig. 2 and the surrounding Sec. II analysis: the throughput-
		// and fairness-optimal configurations differ, each is poor at
		// the other goal, and neither the averaged configuration nor
		// alternating halves recovers the Balanced Oracle.
		{"fig2", "Throughput-optimal vs fairness-optimal configurations (one instant, PARSEC mix 0)",
			oneOff[fig2Outcome]{measureFig2, renderFig2}, nil},
		// Fig. 3: at two instants there exist configuration pairs with
		// the same throughput difference but opposite fairness
		// differences — the opportunity dynamic prioritization exploits.
		{"fig3", "Re-balancing opportunity: same ΔT, opposite ΔF at two instants (PARSEC mix 0)",
			oneOff[[]configPair]{measureFig3, renderFig3}, nil},
		// Fig. 7: average throughput and fairness of every technique as
		// % of the Balanced Oracle over the PARSEC mixes.
		{"fig7", "Average throughput and fairness vs Balanced Oracle (PARSEC)",
			suiteRow{suite: parsec, lineup: fullLineup(), tables: tables{meansTable}, notes: oracleNote},
			[]string{"paper shape: SATORI > PARTIES > CoPart ≈ dCAT > Random on both goals; SATORI ~92% of the Balanced Oracle; single-goal SATORI variants approach the single-goal oracles"}},
		// Fig. 8: per-mix throughput and fairness for all 21 PARSEC
		// mixes, sorted by SATORI's throughput score.
		{"fig8", "Per-mix throughput and fairness, % of Balanced Oracle (PARSEC)",
			suiteRow{suite: parsec, lineup: CompetingPolicies(), tables: tables{perMix(pctThroughput), perMix(pctFairness)}},
			[]string{"first table: throughput; second table: fairness; mixes sorted ascending by SATORI throughput"}},
		// Fig. 9: the worst-performing job in each mix under every
		// technique, and the across-mix average.
		{"fig9", "Worst-performing job per mix, % of Balanced Oracle's worst job (PARSEC)",
			suiteRow{suite: parsec, lineup: CompetingPolicies(), tables: tables{perMix(pctWorst), worstMeansTable}},
			[]string{"paper: SATORI's worst job averages 87% of the Balanced Oracle and leads the baselines"}},
		// Fig. 10: per-mix results for CloudSuite (10 mixes of 3 jobs).
		{"fig10", "Per-mix throughput and fairness, % of Balanced Oracle (CloudSuite)",
			suiteRow{suite: cloud, lineup: CompetingPolicies(), tables: tables{perMix(pctThroughput), perMix(pctFairness)}}, nil},
		// Fig. 11: per-mix results for ECP (10 mixes of 2 jobs).
		{"fig11", "Per-mix throughput and fairness, % of Balanced Oracle (ECP)",
			suiteRow{suite: ecp, lineup: CompetingPolicies(), tables: tables{perMix(pctThroughput), perMix(pctFairness)}},
			[]string{"paper: lowest gain on the minife+swfft mix (both LLC-hungry), best on amg+hypre (similar demands)"}},
		// Fig. 12: CloudSuite suite averages.
		{"fig12", "Average throughput and fairness vs Balanced Oracle (CloudSuite)",
			suiteRow{suite: cloud, lineup: fullLineup(), tables: tables{meansTable}, notes: oracleNote},
			[]string{"paper: SATORI beats PARTIES by 9% (throughput) and 5% (fairness) on CloudSuite"}},
		// Fig. 13: ECP suite averages.
		{"fig13", "Average throughput and fairness vs Balanced Oracle (ECP)",
			suiteRow{suite: ecp, lineup: fullLineup(), tables: tables{meansTable}, notes: oracleNote},
			[]string{"paper: SATORI beats PARTIES by 15% on both goals for ECP"}},
		// Fig. 14: (a) the equalization and prioritization weight
		// components over time; (b) the benefit of dynamic weight
		// re-balancing over static 0.5/0.5 weights across mixes.
		{"fig14", "Dynamic weight re-balancing (a: components over time, b: benefit vs static weights)",
			seq{tracedRow{renderFig14Weights},
				suiteRow{suite: parsec, lineup: lineup("satori", "satori-static"), tables: tables{meansTable}, notes: fig14Benefit}}, nil},
		// Fig. 15: (a) the mean Euclidean distance between each policy's
		// applied configuration and the Balanced Oracle's, and (b) the
		// distance over time for SATORI vs PARTIES across phase changes.
		{"fig15", "Configuration proximity to the Balanced Oracle (PARSEC mix 0)",
			oneOff[fig15Outcome]{measureFig15, renderFig15},
			[]string{"paper: SATORI's configurations are the closest to the Balanced Oracle; competing techniques sit at >=1.3x SATORI's distance",
				"the timeline shows SATORI re-approaching the (moving) oracle configuration faster than PARTIES after phase changes"}},
		// Fig. 16: sensitivity of SATORI's performance to the
		// prioritization period T_P and the equalization period T_E;
		// 3 mixes suffice for the trend.
		{"fig16", "Sensitivity to T_P (top, T_E=10s) and T_E (bottom, T_P=1s)",
			seq{
				fig16Axis("prioritization period", "%.1fs", []int{5, 10, 20, 50, 100}, func(tp int) core.SchedulerOptions {
					return core.SchedulerOptions{PrioritizationTicks: tp, EqualizationTicks: 100}
				}),
				fig16Axis("equalization period", "%.0fs", []int{50, 100, 200, 300, 600}, func(te int) core.SchedulerOptions {
					return core.SchedulerOptions{PrioritizationTicks: 10, EqualizationTicks: te}
				})},
			[]string{"paper: low sensitivity in a wide range; degradation only for very long periods (T_P > 5s, T_E > 30s)"}},
		// Fig. 17: (a) the objective value over time for SATORI vs
		// SATORI-without-prioritization, and (b) the % change of the
		// proxy model between iterations for both.
		{"fig17", "Objective value and proxy-model change over time (blackscholes/canneal/fluidanimate/freqmine/streamcluster)",
			tracedRow{renderFig17}, nil},
		// Fig. 18: the variation of the observed throughput and fairness
		// is similar with and without dynamic prioritization, while the
		// mean level is higher with it.
		{"fig18", "Observed-performance variation with and without dynamic prioritization",
			tracedRow{renderFig18},
			[]string{"paper: SATORI's curve sits above the no-prioritization curve with similar tick-to-tick variation"}},
		// Fig. 19: prioritizing the weaker-performing goal (SATORI's
		// Eq. 4) reaches higher levels of both goals than prioritizing
		// the stronger one.
		{"fig19", "Prioritizing the weaker goal vs the stronger goal",
			suiteRow{suite: parsec, limit: 5, tables: tables{meansTable}, notes: fig19Advantage,
				lineup: variants(core.Options{Name: "satori (prioritize weaker)"},
					core.Options{Name: "prioritize stronger", Scheduler: core.SchedulerOptions{Mode: core.WeightsFavorStronger}})}, nil},
		// Algorithm 1 line 12 end to end: halfway through a run canneal
		// departs and the held-out swaptions takes its slot — a cache-lover
		// for a core-scaler, so the partition must be rebuilt. SATORI only
		// re-records the isolated baselines and must recover its pre-change
		// objective level; Random runs the same scenario as a floor.
		{"mix-change", "Workload-mix change mid-run (canneal departs, swaptions arrives)",
			scenarioRow{machine: sim.DefaultMachine(), jobs: mixZeroJobs, lineup: lineup("satori", "random"),
				midRun: swapInSwaptions, render: renderMixChange},
			[]string{"SATORI absorbs the mix change with only a baseline re-record (Algorithm 1 line 12); previously sampled configurations stay eligible for re-evaluation",
				"paper (Sec. III-C): be it a phase change or a change in workload mixes, SATORI requires no further initialization"}},
		// Violation-driven goal switching: two LC services start at the
		// equal split deep in SLO violation next to three PARSEC batch
		// jobs, and every policy must find a partition that restores
		// tail-latency attainment. SATORI-SLO (WeightsSLOAware + GoalSwitch)
		// sacrifices short-term batch throughput and fairness for SLO
		// health; the baselines run the same scenario without the switch.
		{"slo", "SLO recovery on a mixed batch+LC co-location (2 LC + 3 PARSEC)",
			scenarioRow{machine: sim.DefaultMachine(), jobs: sloJobs, goalSwitch: "satori-slo", render: renderSLO,
				lineup: lineup("satori-slo", "satori", "satori-static", "parties", "copart")},
			[]string{"all policies start at the equal split with both LC services violating their p99 targets",
				"satori-slo switches the fairness goal to SLO attainment and floors the throughput weight while the violation persists, reverting hysteretically after recovery",
				"recovery = first tick whose trailing 10-tick mean attainment reaches 0.95"}},
		// Sec. V scalability: the %-point gap between SATORI and PARTIES
		// grows monotonically as the co-location degree rises from 3 to
		// 7 (paper: 8/11/13/13/15 %-points).
		{"scalability", "SATORI vs PARTIES as co-location degree grows (PARSEC)",
			sweepRow{lineup: lineup("satori", "parties"), points: scalabilityPoints, cells: scalabilityCells, notes: scalabilityTrend,
				header: []string{"co-located jobs", "satori T", "parties T", "ΔT pts", "satori F", "parties F", "ΔF pts"}},
			[]string{"larger spaces have more local maxima; gradient descent (PARTIES) gets stuck more often than SATORI's joint BO search"}},
		// Jobs ≫ classes (LFOC's setting, PAPERS.md): 24 jobs on one big
		// machine, per-job SATORI vs clustered SATORI at K ∈ {4, 8, 16} —
		// K coordinates per resource and K CLOS groups instead of 24 — vs
		// LFOC (classification without search) vs static equal split.
		{"cluster", "Jobs ≫ classes: 24 jobs, clustered search at K ∈ {4, 8, 16} (PARSEC, cycled)",
			scenarioRow{machine: clusterMachine(), jobs: clusterJobs, render: renderCluster,
				lineup: slices.Concat(lineup("static", "lfoc"), []NamedFactory{
					{"satori-clustered-k4", ClusteredSatoriFactory(4, core.Options{})},
					{"satori-clustered-k8", ClusteredSatoriFactory(8, core.Options{})},
					{"satori-clustered-k16", ClusteredSatoriFactory(16, core.Options{})},
				}, lineup("satori"))},
			[]string{"per-job SATORI searches 24 coordinates per resource; K=8 searches 8 — and 24 jobs fit in 8 CLOS control groups, under the 16-class budget of commodity CAT hardware",
				"LFOC classifies identically but allocates by rule instead of searching the cluster space; the objective gap to satori-clustered-k8 is what cluster-level BO search adds",
				"regroups counts committed membership migrations (hysteresis 2 rounds); low counts mean the classifier converged instead of thrashing"}},
		// Sec. VI related work: CLITE — the authors' earlier BO
		// partitioner, which lacks dynamic goal prioritization — lands in
		// PARTIES territory and below SATORI when co-optimizing
		// throughput and fairness for throughput-oriented jobs.
		{"clite", "CLITE (BO without dynamic prioritization) vs PARTIES and SATORI",
			suiteRow{suite: parsec, limit: 8, lineup: lineup("parties", "clite", "satori"), tables: tables{meansTable}},
			[]string{"paper (Sec. VI): applied to SATORI's problem, CLITE performs similar to PARTIES and underperforms SATORI by a similar margin — neither actively controls the two competing objectives"}},
		// Sec. V source of benefit: SATORI restricted to dCAT's single
		// resource (LLC ways) still beats dCAT, and restricted to
		// CoPart's two (LLC + memory bandwidth) still beats CoPart.
		{"ablation-resources", "SATORI on restricted resource sets vs the baselines that manage them",
			suiteRow{suite: parsec, limit: 5, tables: tables{meansTable}, notes: resourcesBenefit,
				lineup: slices.Concat(
					lineup("dcat"), variants(core.Options{Name: "satori-llc", Managed: []resource.Kind{resource.LLCWays}}),
					lineup("copart"), variants(core.Options{Name: "satori-llc+bw", Managed: []resource.Kind{resource.LLCWays, resource.MemBW}}),
					lineup("satori"))},
			[]string{"SATORI's benefits are not merely from operating on more resources"}},
		// Sec. V initial-design note: seeding with "good" (equal-split,
		// low-imbalance) configurations vs random starts changes final
		// quality by a small margin (paper: 1-3%).
		{"ablation-init", "Good (S_init) vs random initial configuration sets",
			suiteRow{suite: parsec, limit: 5, tables: tables{meansTable}, notes: initAdvantage,
				lineup: variants(core.Options{Name: "good-init"}, core.Options{Name: "random-init", RandomInit: true})}, nil},
		// The GP observation-window size — a design choice DESIGN.md
		// calls out: small windows adapt faster to phase changes but
		// model less of the space; large windows model stale phases.
		{"ablation-window", "Proxy-model sliding-window size",
			suiteRow{suite: parsec, limit: 3, tables: tables{meansTable},
				lineup: variants(core.Options{Name: "window-16", Window: 16},
					core.Options{Name: "window-64", Window: 64}, core.Options{Name: "window-256", Window: 256})}, nil},
		// Sec. III-C weight bounds: removing the [0.25, 0.75] clamp lets
		// prioritization swing to extremes, which the paper argues
		// destabilizes the moving-goal-post BO process. WeightFloorSet
		// lets the unbounded arm use the true [0, 1] range.
		{"ablation-bounds", "Dynamic-weight bounds vs near-unbounded prioritization",
			suiteRow{suite: parsec, limit: 5, tables: tables{meansTable},
				lineup: []NamedFactory{
					{"bounded [0.25,0.75]", SatoriFactory(core.Options{Name: "bounded"})},
					{"unbounded [0,1]", SatoriFactory(core.Options{Name: "unbounded",
						Scheduler: core.SchedulerOptions{WeightFloor: 0, WeightFloorSet: true, WeightCeil: 1}})},
				}}, nil},
		// The paper's premise (Sec. I, III-A) is that BO's
		// "just-accurate-enough" proxy model tolerates observation
		// inaccuracy; the sweep quantifies how much counter noise SATORI
		// absorbs before its scores degrade.
		{"ablation-noise", "SATORI vs IPS measurement-noise level",
			sweepRow{limit: 3, lineup: lineup("satori"), points: noisePoints, cells: pctCells,
				header: []string{"noise sigma", "throughput %oracle", "fairness %oracle"}},
			[]string{"paper premise: tolerating slight model inaccuracy still reaches near-optimal configurations online; the GP noise term absorbs counter noise up to several percent"}},
		// Portability ("deployable readily on platforms where hardware
		// partitioning support is available", Sec. III): with zero
		// retuning on a desktop-class part, the paper's Skylake testbed
		// and a larger socket, SATORI must stay ahead of PARTIES.
		{"ablation-machine", "Portability across machine shapes (no retuning)",
			sweepRow{limit: 3, lineup: lineup("satori", "parties"), points: machinePoints, cells: pairCells,
				header: []string{"machine", "satori T", "parties T", "satori F", "parties F"}},
			[]string{"the engine's no-tuning heuristics (median-distance length scale, data-scaled kernel variance) adapt to each machine's configuration-space size automatically"}},
		// The paper picks Expected Improvement for its exploration/
		// exploitation balance at low evaluation cost (Sec. III-A); UCB,
		// PI and Thompson sampling run on identical workloads. Only EI's
		// score (an expected gain) supports the skip-probe optimization;
		// the alternatives probe every interval.
		{"ablation-acquisition", "Acquisition functions: EI (paper's choice) vs UCB, PI, Thompson sampling",
			suiteRow{suite: parsec, limit: 3, tables: tables{meansTable},
				lineup: variants(core.Options{Name: "ei", Acquisition: "ei"}, core.Options{Name: "ucb", Acquisition: "ucb"},
					core.Options{Name: "pi", Acquisition: "pi"}, core.Options{Name: "ts", Acquisition: "ts"})},
			[]string{"paper (Sec. III-A): EI provides a reasonable exploration/exploitation balance at low evaluation cost; it is also the only acquisition whose score directly supports the skip-probe optimization"}},
		// The Fig. 7 comparison across several seeds as mean ± 95% CI:
		// the statistical backing for the single-seed tables (our
		// addition; the paper reports single measurements).
		{"replication", "Fig. 7 comparison replicated over 5 seeds (mean ± 95% CI)",
			oneOff[map[string]ReplicatedMean]{measureReplication, renderReplication}, nil},
		// Sec. V overhead: wall-clock cost of one full BO iteration
		// (objective reconstruction + proxy update + acquisition
		// maximization) in the 100 ms interval; the paper measures 1.2 ms.
		{"overhead", "SATORI engine cost per 100 ms interval",
			oneOff[overheadOutcome]{measureOverhead, renderOverhead},
			[]string{"paper: all BO-related tasks take 1.2 ms on average within the 100 ms interval; decisions are off the critical path (jobs keep running under the previous configuration)",
				"the GP rows split the proxy-update work by path: most ticks re-weight an unchanged window, which needs only the O(n²) α re-solve, not the O(n³) refit (see DESIGN.md §4)"}},
		// Sec. II configuration-space arithmetic (Observation 1).
		{"space", "Configuration-space sizes (Sec. II: 1,296 / 7,056 / 592,704)",
			oneOff[[]spaceSize]{measureSpace, renderSpace},
			[]string{"exhaustive online search is infeasible; SATORI's BO samples a few dozen configurations instead"}},
	}
}
