package harness

import (
	"fmt"

	"satori/internal/control"
	"satori/internal/core"
	"satori/internal/sim"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// clusterMachine is the jobs ≫ CLOS ablation's machine shape: large
// enough to co-locate 24 jobs (every resource has at least one unit per
// job) but with per-job spaces far past what 16 hardware classes of
// service could hold one control group each for.
func clusterMachine() sim.MachineSpec {
	return sim.MachineSpec{
		Cores:             48,
		LLCWays:           32,
		MemBWUnits:        24,
		MemBWBytesPerUnit: 7.68e9,
		LineBytes:         64,
		MinPowerScale:     0.55,
	}
}

// clusterJobs builds the 24-job co-location by cycling the PARSEC
// profiles — heterogeneous enough that the classifier has real classes
// to find, deterministic in order.
func clusterJobs(n int) []*sim.Profile {
	base := workloads.PARSEC()
	out := make([]*sim.Profile, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

// RunCluster is the jobs ≫ classes ablation: 24 co-located jobs on one
// big machine, per-job SATORI vs clustered SATORI at K ∈ {4, 8, 16} vs
// the LFOC baseline (classification without search) vs static equal
// split. Clustered SATORI searches a space of K coordinates per resource
// instead of 24 and fits a 24-job co-location into K CLOS control
// groups; the table shows what that costs (or doesn't) in objective
// terms, while the committed regroup counts show the classifier
// converging rather than thrashing.
func RunCluster(opt ExpOptions) (*Report, error) {
	opt = opt.fill()
	const jobs = 24
	profiles := clusterJobs(jobs)

	type row struct {
		name     string
		factory  PolicyFactory
		summary  control.Summary
		regroups int
	}
	rows := []*row{
		{name: "static", factory: onSim(Static)},
		{name: "lfoc", factory: onSim(LFOC(8))},
		{name: "satori-clustered-k4", factory: ClusteredSatoriFactory(4, core.Options{})},
		{name: "satori-clustered-k8", factory: ClusteredSatoriFactory(8, core.Options{})},
		{name: "satori-clustered-k16", factory: ClusteredSatoriFactory(16, core.Options{})},
		{name: "satori", factory: SatoriFactory(core.Options{})},
	}
	err := forEach(opt.Workers, len(rows), func(i int) error {
		r := rows[i]
		loop, _, err := bootSim(clusterMachine(), profiles, sim.Options{Seed: opt.Seed},
			nil, r.factory, control.Options{})
		if err != nil {
			return err
		}
		if _, err := loop.Run(opt.Ticks); err != nil {
			return err
		}
		r.summary = loop.Summary()
		r.regroups = r.summary.Regroups
		return nil
	})
	if err != nil {
		return nil, err
	}

	tbl := trace.NewTable("policy", "throughput", "fairness", "objective", "regroups")
	for _, r := range rows {
		tbl.AddRow(r.name,
			trace.F(r.summary.MeanThroughput),
			trace.F(r.summary.MeanFairness),
			trace.F(r.summary.MeanObjective),
			fmt.Sprintf("%d", r.regroups))
	}
	rep := &Report{ID: "cluster", Title: fmt.Sprintf("Jobs ≫ classes: %d jobs, clustered search at K ∈ {4, 8, 16} (PARSEC, cycled)", jobs)}
	rep.Tables = append(rep.Tables, tbl)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("per-job SATORI searches %d coordinates per resource; K=8 searches 8 — and 24 jobs fit in 8 CLOS control groups, under the 16-class budget of commodity CAT hardware", jobs),
		"LFOC classifies identically but allocates by rule instead of searching the cluster space; the objective gap to satori-clustered-k8 is what cluster-level BO search adds",
		"regroups counts committed membership migrations (hysteresis 2 rounds); low counts mean the classifier converged instead of thrashing")
	return rep, nil
}
