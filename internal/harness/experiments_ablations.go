package harness

import (
	"fmt"
	"time"

	"satori/internal/core"
	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/trace"
	"satori/internal/workloads"
)

// scalabilityPoints is one point per co-location degree 3..7, each over
// a handful of that degree's PARSEC mixes — enough to average out mix
// idiosyncrasies while keeping the sweep tractable.
func scalabilityPoints(opt ExpOptions) ([]sweepPoint, error) {
	maxDegree := 7
	if opt.MixLimit > 0 && opt.MixLimit < 3 {
		maxDegree = 5 // smoke-test scale
	}
	var pts []sweepPoint
	for degree := 3; degree <= maxDegree; degree++ {
		mixes, err := workloads.Mixes(workloads.PARSEC(), degree)
		if err != nil {
			return nil, err
		}
		limit := min(3, len(mixes))
		stride := len(mixes) / limit
		var chosen []workloads.Mix
		for k := 0; k < limit; k++ {
			chosen = append(chosen, mixes[k*stride])
		}
		pts = append(pts, sweepPoint{fmt.Sprintf("%d", degree), func(spec *SuiteSpec) { spec.Mixes = chosen }})
	}
	return pts, nil
}

// scalabilityGap is SATORI's lead over PARTIES at one degree, in
// %-points: on throughput, on fairness, and their average; m is
// (satori, parties).
func scalabilityGap(m []Mean) (dT, dF, combined float64) {
	dT = (m[0].PctThroughput - m[1].PctThroughput) * 100
	dF = (m[0].PctFairness - m[1].PctFairness) * 100
	return dT, dF, (dT + dF) / 2
}

func scalabilityCells(m []Mean) []string {
	dT, dF, _ := scalabilityGap(m)
	return []string{
		trace.Pct(m[0].PctThroughput), trace.Pct(m[1].PctThroughput), fmt.Sprintf("%+.1f", dT),
		trace.Pct(m[0].PctFairness), trace.Pct(m[1].PctFairness), fmt.Sprintf("%+.1f", dF)}
}

func scalabilityTrend(means [][]Mean) []string {
	_, _, first := scalabilityGap(means[0])
	_, _, last := scalabilityGap(means[len(means)-1])
	return []string{fmt.Sprintf("combined gap trend (first %.1f -> last %.1f %%-points); paper: 8/11/13/13/15 for degrees 3-7, monotonically increasing: %v",
		first, last, len(means) > 1 && last > first)}
}

func noisePoints(ExpOptions) ([]sweepPoint, error) {
	var pts []sweepPoint
	for _, sigma := range []float64{-1, 0.01, 0.02, 0.05, 0.10} {
		label := fmt.Sprintf("%.0f%%", sigma*100)
		if sigma < 0 {
			label = "noise-free"
		}
		pts = append(pts, sweepPoint{label, func(spec *SuiteSpec) { spec.Base.NoiseSigma = sigma }})
	}
	return pts, nil
}

func machinePoints(ExpOptions) ([]sweepPoint, error) {
	var pts []sweepPoint
	for _, shape := range []struct {
		name    string
		machine sim.MachineSpec
	}{
		{"8c/8w/8bw (desktop)", sim.MachineSpec{Cores: 8, LLCWays: 8, MemBWUnits: 8, MemBWBytesPerUnit: 6e9, LineBytes: 64}},
		{"10c/11w/10bw (paper)", sim.DefaultMachine()},
		{"16c/20w/16bw (large)", sim.MachineSpec{Cores: 16, LLCWays: 20, MemBWUnits: 16, MemBWBytesPerUnit: 8e9, LineBytes: 64}},
	} {
		pts = append(pts, sweepPoint{shape.name, func(spec *SuiteSpec) { spec.Base.Machine = &shape.machine }})
	}
	return pts, nil
}

// overheadOutcome is the measured cost of the engine's Decide calls over
// one run, and how the proxy-update work split by path.
type overheadOutcome struct {
	ticks, exploits               int
	mean, max                     time.Duration
	refits, extends, targetSolves int
}

func measureOverhead(opt ExpOptions) (overheadOutcome, error) {
	out := overheadOutcome{ticks: opt.Ticks}
	jobs, err := mixZeroJobs()
	if err != nil {
		return out, err
	}
	s, err := sim.New(sim.DefaultMachine(), jobs, sim.Options{Seed: opt.Seed})
	if err != nil {
		return out, err
	}
	platform, err := rdt.NewSimPlatform(s)
	if err != nil {
		return out, err
	}
	eng, err := core.New(platform.Space(), core.Options{Seed: opt.Seed})
	if err != nil {
		return out, err
	}
	iso, err := platform.MeasureIsolated()
	if err != nil {
		return out, err
	}
	met := DefaultMetrics()
	current := platform.Current()
	var total time.Duration
	for tick := 1; tick <= opt.Ticks; tick++ {
		ips, err := platform.Sample()
		if err != nil {
			return out, err
		}
		obs := policy.Observation{
			Tick: tick, Time: s.Now(), IPS: ips, Isolated: iso,
			Speedups:   metrics.Speedups(ips, iso),
			Throughput: metrics.NormalizedThroughput(met.Throughput, ips, iso),
			Fairness:   metrics.NormalizedFairness(met.Fairness, ips, iso),
		}
		start := time.Now()
		next := eng.Decide(obs, current)
		dur := time.Since(start)
		total += dur
		out.max = max(out.max, dur)
		if err := platform.Apply(next); err == nil {
			current = platform.Current()
		}
		if tick%100 == 0 {
			iso, _ = platform.MeasureIsolated()
		}
	}
	out.mean = total / time.Duration(opt.Ticks)
	out.exploits = eng.Exploits()
	st := eng.GPStats()
	out.refits, out.extends, out.targetSolves = st.Refits, st.Extends, st.TargetSolves
	return out, nil
}

func renderOverhead(rep *Report, out overheadOutcome) {
	tbl := trace.NewTable("quantity", "value")
	tbl.AddRow("mean BO iteration time", out.mean.String())
	tbl.AddRow("max BO iteration time", out.max.String())
	tbl.AddRow("decision interval", "100ms")
	tbl.AddRow("mean fraction of interval", fmt.Sprintf("%.2f%%", float64(out.mean)/float64(100*time.Millisecond)*100))
	tbl.AddRow("exploit (skip-probe) ticks", fmt.Sprintf("%d of %d", out.exploits, out.ticks))
	tbl.AddRow("GP full refits", fmt.Sprintf("%d", out.refits))
	tbl.AddRow("GP rank-1 extends", fmt.Sprintf("%d", out.extends))
	tbl.AddRow("GP target-only updates", fmt.Sprintf("%d", out.targetSolves))
	rep.Tables = append(rep.Tables, tbl)
}

// spaceSize is one line of the Sec. II arithmetic: a partitioning
// problem and its configuration count.
type spaceSize struct {
	jobs, resources int
	units           string
	configurations  float64
}

func measureSpace(ExpOptions) ([]spaceSize, error) {
	var out []spaceSize
	for _, c := range []struct{ jobs, res, units int }{{3, 2, 10}, {4, 2, 10}, {4, 3, 10}, {5, 3, 10}} {
		rs := make([]resource.Resource, c.res)
		for i := range rs {
			rs[i] = resource.Resource{Kind: resource.Kind(i), Units: c.units}
		}
		space, err := resource.NewSpace(c.jobs, rs...)
		if err != nil {
			return nil, err
		}
		out = append(out, spaceSize{c.jobs, c.res, fmt.Sprintf("%d", c.units), space.Size()})
	}
	// The paper-testbed space for a 5-job PARSEC mix.
	space, err := sim.DefaultMachine().Space(5)
	if err != nil {
		return nil, err
	}
	return append(out, spaceSize{5, 3, "10/11/10", space.Size()}), nil
}

func renderSpace(rep *Report, sizes []spaceSize) {
	tbl := trace.NewTable("jobs", "resources", "units each", "configurations")
	for _, s := range sizes {
		tbl.AddRow(fmt.Sprintf("%d", s.jobs), fmt.Sprintf("%d", s.resources), s.units, fmt.Sprintf("%.0f", s.configurations))
	}
	rep.Tables = append(rep.Tables, tbl)
}
