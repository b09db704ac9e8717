package harness

import (
	"fmt"

	"satori/internal/control"
	"satori/internal/sim"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// swapInSwaptions is the mix change: canneal (slot 1) departs and
// swaptions arrives; baselines are re-recorded, which also preempts a
// periodic refresh due at the same boundary — the change itself is the
// equalization event.
func swapInSwaptions(loop *control.Loop) error {
	arrival, err := workloads.ByName("swaptions")
	if err != nil {
		return err
	}
	return loop.ReplaceJob(1, arrival)
}

// renderMixChange reports, per policy, the mean objective on either side
// of the change and how long after it the trailing 10-tick mean first
// reaches 95% of the pre-change mean.
func renderMixChange(rep *Report, runs []scenarioRun) {
	tbl := trace.NewTable("policy", "objective before", "objective after", "recovery")
	for _, run := range runs {
		half := len(run.objective) / 2
		before := runMean(run.objective[:half])
		tbl.AddRow(run.policy, trace.F(before), trace.F(runMean(run.objective[half:])),
			fmtRecovery(recoveryTicks(run.objective, half, 10, 0.95*before)))
	}
	rep.Tables = append(rep.Tables, tbl)
}

// sloJobs is the mixed co-location: two LC services next to three PARSEC
// batch jobs.
func sloJobs() ([]*sim.Profile, error) {
	return workloads.Select("memcached-lc,nginx-lc,canneal,fluidanimate,streamcluster", "", 0)
}

// sloRecovery is the first tick whose trailing 10-tick mean attainment
// reaches the recovered level (0.95; the critical-IPS boundary itself
// attains 0.99), or -1.
func sloRecovery(run scenarioRun) int { return recoveryTicks(run.attainment, 0, 10, 0.95) }

func renderSLO(rep *Report, runs []scenarioRun) {
	tbl := trace.NewTable("policy", "slo attainment", "violated ticks", "recovery", "objective")
	for _, run := range runs {
		tbl.AddRow(run.policy, trace.F(runMean(run.attainment)), fmt.Sprintf("%d", run.summary.SLOViolatedTicks),
			fmtRecovery(sloRecovery(run)), trace.F(run.summary.MeanObjective))
	}
	rep.Tables = append(rep.Tables, tbl)
}

// clusterMachine is the jobs ≫ CLOS ablation's machine shape: large
// enough to co-locate 24 jobs (every resource has at least one unit per
// job) but with per-job spaces far past what 16 hardware classes of
// service could hold one control group each for.
func clusterMachine() sim.MachineSpec {
	return sim.MachineSpec{Cores: 48, LLCWays: 32, MemBWUnits: 24,
		MemBWBytesPerUnit: 7.68e9, LineBytes: 64, MinPowerScale: 0.55}
}

// clusterJobs builds the 24-job co-location by cycling the PARSEC
// profiles — heterogeneous enough that the classifier has real classes
// to find, deterministic in order.
func clusterJobs() ([]*sim.Profile, error) {
	base := workloads.PARSEC()
	out := make([]*sim.Profile, 24)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out, nil
}

// renderCluster shows what searching K coordinates per resource instead
// of 24 costs (or doesn't) in objective terms, while the committed
// regroup counts show the classifier converging rather than thrashing.
func renderCluster(rep *Report, runs []scenarioRun) {
	tbl := trace.NewTable("policy", "throughput", "fairness", "objective", "regroups")
	for _, run := range runs {
		s := run.summary
		tbl.AddRow(run.policy, trace.F(s.MeanThroughput), trace.F(s.MeanFairness), trace.F(s.MeanObjective), fmt.Sprintf("%d", s.Regroups))
	}
	rep.Tables = append(rep.Tables, tbl)
}
