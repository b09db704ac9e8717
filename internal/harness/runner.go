// Package harness runs resource-partitioning policies on the simulated
// testbed and reproduces every figure of the SATORI paper's evaluation
// (each is a row of the table in experiments_table.go; DESIGN.md §5 is
// the index).
//
// A Run co-locates one job mix on one machine under one policy for a
// fixed duration, sampling at 10 Hz, refreshing isolated baselines on the
// equalization schedule of Algorithm 1, and recording per-tick normalized
// throughput, fairness and (optionally) the distance to the Balanced
// Oracle configuration. Results are reported as % of the Balanced Oracle
// exactly as the paper presents them.
package harness

import (
	"fmt"
	"math"

	"satori/internal/control"
	"satori/internal/core"
	"satori/internal/metrics"
	"satori/internal/policies/oracle"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/trace"
)

// MetricSet selects the objective formulas for an experiment. The zero
// value holds the Default* sentinels, which resolve to the paper's
// evaluation pairing (sum-of-IPS + Jain's index, Sec. IV) — the same
// defaults DefaultMetrics returns explicitly. An explicit
// GeoMeanSpeedup/JainIndex request is distinct from the zero value and
// is honored as-is.
type MetricSet struct {
	Throughput metrics.ThroughputMetric
	Fairness   metrics.FairnessMetric
}

// PolicyFactory is the shape a harness run takes its policy in
// (RunSpec.Policy, NamedFactory): a builder pinned to the simulator
// platform every harness run boots. The factories this package hands out
// are thin adapters over the platform-generic builders of factories.go;
// front-ends that drive other platforms use ResolvePolicy instead.
// Factories must be safe to call from concurrent runs: every call builds
// a fresh policy bound to that run's platform and seed, and any captured
// options are copied, never mutated (the harness fans runs out over a
// worker pool; see parallel.go).
type PolicyFactory func(p *rdt.SimPlatform, seed uint64) (policy.Policy, error)

// bind adapts a factory to control.Options.Policy: the returned builder
// takes the platform the loop drives and hands the factory the simulator
// platform behind whatever decorators it carries (rdt.As).
func bind(f PolicyFactory, seed uint64) func(rdt.Platform) (policy.Policy, error) {
	return func(p rdt.Platform) (policy.Policy, error) {
		sp, ok := rdt.As[*rdt.SimPlatform](p)
		if !ok {
			return nil, fmt.Errorf("harness: a PolicyFactory builds on the simulator platform, and %T has none underneath", p)
		}
		return f(sp, seed)
	}
}

// bootSim assembles the simulated stack every harness run drives:
// simulator → platform → (fault injector) → control loop. opt carries
// the loop's tuning; its Platform and Policy are filled here, the policy
// seeded like the simulator.
func bootSim(machine sim.MachineSpec, profiles []*sim.Profile, simOpt sim.Options,
	faults *rdt.FaultScript, f PolicyFactory, opt control.Options) (*control.Loop, *sim.Simulator, error) {
	simulator, err := sim.New(machine, profiles, simOpt)
	if err != nil {
		return nil, nil, err
	}
	var platform rdt.Platform
	platform, err = rdt.NewSimPlatform(simulator)
	if err != nil {
		return nil, nil, err
	}
	if faults != nil {
		platform, err = rdt.NewFaultInjector(platform, *faults)
		if err != nil {
			return nil, nil, err
		}
	}
	opt.Platform = platform
	opt.Policy = bind(f, simOpt.Seed)
	loop, err := control.New(opt)
	return loop, simulator, err
}

// RunSpec fully describes one run.
type RunSpec struct {
	// Machine defaults to sim.DefaultMachine().
	Machine *sim.MachineSpec
	// Profiles are the co-located jobs.
	Profiles []*sim.Profile
	// Policy builds the strategy under test.
	Policy PolicyFactory
	// Ticks is the run length in 100 ms intervals (default 600 = 60 s).
	Ticks int
	// Seed makes the run reproducible.
	Seed uint64
	// NoiseSigma forwards to sim.Options (0 = default 2%).
	NoiseSigma float64
	// Metrics selects objective formulas.
	Metrics MetricSet
	// TrackOracleDistance additionally computes, each tick, the
	// Balanced-Oracle configuration for the current phase state and
	// records the Euclidean distance of the applied configuration to
	// it (Fig. 15). Costs an oracle search per phase change.
	TrackOracleDistance bool
	// KeepTrace retains the full per-tick series in the result.
	KeepTrace bool
	// Faults, when non-nil, wraps the platform in a deterministic fault
	// injector running this script (resilience experiments).
	Faults *rdt.FaultScript
}

// Result aggregates one run.
type Result struct {
	// PolicyName is the policy's self-reported name.
	PolicyName string
	// Ticks is the number of completed intervals.
	Ticks int
	// MeanThroughput and MeanFairness are the run averages of the
	// normalized scores — the quantities the paper averages "over the
	// runtime of a job mix".
	MeanThroughput float64
	// MeanFairness is the run-average normalized fairness.
	MeanFairness float64
	// MeanObjective is the run average of 0.5·T + 0.5·F.
	MeanObjective float64
	// MeanWorstSpeedup is the run average of the slowest job's speedup
	// (Fig. 9).
	MeanWorstSpeedup float64
	// StdThroughput and StdFairness are the tick-to-tick standard
	// deviations of the normalized scores (Fig. 18's variation).
	StdThroughput float64
	StdFairness   float64
	// MeanOracleDistance is the run-average configuration distance to
	// the Balanced Oracle (only when TrackOracleDistance).
	MeanOracleDistance float64
	// MedianOracleDistance is the run-median of the same distance —
	// robust to a BO policy's sparse exploration probes.
	MedianOracleDistance float64
	// Applies is how many configuration changes the platform accepted.
	Applies int
	// RejectedApplies is how many of the policy's decisions the platform
	// refused (invalid or non-compilable configurations). Before this
	// counter, a policy emitting garbage was indistinguishable from one
	// that deliberately held the current configuration.
	RejectedApplies int
	// TransientResets counts periodic baseline refreshes that failed
	// transiently (rdt.IsTransient) and were survived: the stale
	// baselines stayed in force until the next boundary. A fatal reset
	// failure still aborts the run.
	TransientResets int
	// Trace holds per-tick columns when KeepTrace was set:
	// tick, time, throughput, fairness, objective, worst, and — when
	// the policy exposes them — wT, wF, wTE, wFE, wTP, wFP, satobj,
	// proxychange, and oracledist when tracked.
	Trace *trace.Series
}

// weightReporter is implemented by the SATORI engine for Fig. 14/17/19
// instrumentation.
type weightReporter interface {
	LastWeights() core.Weights
	LastObjective() float64
	ProxyChange() float64
}

// Run executes one policy run: it builds the simulated platform, then
// drives internal/control's backend-agnostic tick loop (the same loop
// behind satori.Session and the fleet's nodes), layering the
// harness-only instrumentation — worst-job speedup, Balanced-Oracle
// distance, and the per-tick trace — on top of each Status.
func Run(spec RunSpec) (*Result, error) {
	machine := sim.DefaultMachine()
	if spec.Machine != nil {
		machine = *spec.Machine
	}
	if spec.Ticks <= 0 {
		spec.Ticks = 600
	}
	if spec.Policy == nil {
		return nil, fmt.Errorf("harness: RunSpec.Policy is required")
	}
	loop, simulator, err := bootSim(machine, spec.Profiles,
		sim.Options{Seed: spec.Seed, NoiseSigma: spec.NoiseSigma}, spec.Faults, spec.Policy,
		control.Options{Throughput: spec.Metrics.Throughput, Fairness: spec.Metrics.Fairness})
	if err != nil {
		return nil, err
	}
	pol := loop.Policy()

	var refSearcher *oracle.Searcher
	refCache := map[string]resource.Config{}
	var refKey []byte
	if spec.TrackOracleDistance {
		refSearcher = oracle.NewSearcher(simulator, oracle.Options{
			Seed:             spec.Seed ^ 0xFACE,
			ThroughputMetric: spec.Metrics.Throughput,
			FairnessMetric:   spec.Metrics.Fairness,
		})
	}

	columns := []string{"tick", "time", "throughput", "fairness", "objective", "worst"}
	wr, hasWeights := pol.(weightReporter)
	if hasWeights {
		columns = append(columns, "wT", "wF", "wTE", "wFE", "wTP", "wFP", "eqfrac", "satobj", "proxychange")
	}
	if spec.TrackOracleDistance {
		columns = append(columns, "oracledist")
	}
	var series *trace.Series
	if spec.KeepTrace {
		series = trace.NewSeries(columns...)
	}

	res := &Result{PolicyName: pol.Name()}
	var accWorst, accDist stats.Welford
	var distSamples []float64

	for tick := 1; tick <= spec.Ticks; tick++ {
		st, err := loop.Step()
		if err != nil {
			return nil, err
		}
		obj := 0.5*st.Throughput + 0.5*st.Fairness
		// A tick held without a scored observation (a lost or corrupt
		// sample) has no speedups and stays out of the worst-job mean.
		worst := metrics.WorstSpeedup(st.Speedups)
		if st.Held == 0 || st.Held == control.HeldApplyRejected {
			accWorst.Add(worst)
		}

		var dist float64
		if spec.TrackOracleDistance {
			refKey = simulator.AppendPhaseKey(refKey[:0])
			ref, ok := refCache[string(refKey)]
			if !ok {
				// Cache only successful searches: a failed search
				// returns the zero-value Config (objective -Inf), and
				// caching it would silently zero MeanOracleDistance
				// for this phase for the rest of the run. Leaving the
				// key absent retries on the next tick instead.
				if c, v := refSearcher.Search(0.5, 0.5); c.Alloc != nil && !math.IsInf(v, -1) {
					ref = c
					refCache[string(refKey)] = ref
				}
			}
			if ref.Alloc != nil {
				dist = resource.Distance(st.Config, ref)
				accDist.Add(dist)
				distSamples = append(distSamples, dist)
			}
		}

		if series != nil {
			row := []float64{float64(tick), st.Time, st.Throughput, st.Fairness, obj, worst}
			if hasWeights {
				w := wr.LastWeights()
				row = append(row, w.T, w.F, w.TE, w.FE, w.TP, w.FP, w.EqFrac,
					wr.LastObjective(), wr.ProxyChange())
			}
			if spec.TrackOracleDistance {
				row = append(row, dist)
			}
			series.Add(row...)
		}
	}

	sum := loop.Summary()
	res.Ticks = spec.Ticks
	res.MeanThroughput = sum.MeanThroughput
	res.MeanFairness = sum.MeanFairness
	res.MeanObjective = sum.MeanObjective
	res.MeanWorstSpeedup = accWorst.Mean()
	res.StdThroughput = sum.StdThroughput
	res.StdFairness = sum.StdFairness
	res.MeanOracleDistance = accDist.Mean()
	res.MedianOracleDistance = stats.Median(distSamples)
	res.Applies = simulator.Applies()
	res.RejectedApplies = sum.RejectedApplies
	res.TransientResets = sum.ResetErrs
	res.Trace = series
	return res, nil
}
