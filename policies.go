package satori

import (
	"fmt"

	"satori/internal/cluster"
	"satori/internal/core"
	"satori/internal/harness"
	"satori/internal/policies/copart"
	"satori/internal/policies/dcat"
	"satori/internal/policies/oracle"
	"satori/internal/policies/parties"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
)

// EngineOptions re-exports the SATORI engine configuration.
type EngineOptions = core.Options

// SchedulerOptions re-exports the goal-weight scheduler configuration.
type SchedulerOptions = core.SchedulerOptions

// Weight modes (Sec. III-C).
const (
	WeightsDynamic       = core.WeightsDynamic
	WeightsStatic        = core.WeightsStatic
	WeightsFavorStronger = core.WeightsFavorStronger
)

// Engine is the SATORI BO engine (policy implementation).
type Engine = core.Engine

// NewSatoriPolicy builds full SATORI with dynamic goal prioritization.
// Pass the result as SessionConfig.Policy.
func NewSatoriPolicy(opt EngineOptions) func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) {
		return core.New(p.Space(), opt)
	}
}

// NewStaticSatoriPolicy builds SATORI with fixed weights: wT = 1 is
// Throughput SATORI, wT = 0 is Fairness SATORI, wT = 0.5 is the
// no-dynamic-prioritization variant.
func NewStaticSatoriPolicy(wT float64) func(Platform) (Policy, error) {
	return NewSatoriPolicy(EngineOptions{
		Scheduler:   SchedulerOptions{Mode: WeightsStatic},
		StaticWT:    wT,
		StaticWTSet: true,
	})
}

// NewRandomPolicy builds the Random Search baseline.
func NewRandomPolicy(seed uint64) func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) {
		return policy.NewRandom(p.Space(), seed), nil
	}
}

// NewStaticPolicy builds the hold-current-partition (unmanaged) baseline.
func NewStaticPolicy() func(Platform) (Policy, error) {
	return func(Platform) (Policy, error) { return policy.Static{}, nil }
}

// NewDCATPolicy builds the dCAT baseline (throughput-oriented dynamic LLC
// way partitioning).
func NewDCATPolicy() func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) {
		return dcat.New(p.Space(), dcat.Options{})
	}
}

// NewCoPartPolicy builds the CoPart baseline (fairness-oriented dual-FSM
// partitioning of LLC ways and memory bandwidth).
func NewCoPartPolicy() func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) {
		return copart.New(p.Space(), copart.Options{})
	}
}

// NewPARTIESPolicy builds the adapted-PARTIES baseline (gradient-descent,
// one resource dimension at a time, balanced objective).
func NewPARTIESPolicy() func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) {
		return parties.New(p.Space(), parties.Options{}), nil
	}
}

// NewClusteredSatoriPolicy builds SATORI behind the cluster indirection:
// jobs are classified online (LFOC-style) into at most k clusters and
// the BO engine searches the reduced cluster space, so a co-location
// larger than the machine's CLOS budget still fits — one control group
// per cluster. With k ≥ jobs the behavior is bit-identical to plain
// SATORI. When the platform has the Grouper capability (both the
// simulator and the resctrl backend do, behind any decorator), the
// grouping is pushed down so the hardware layout follows every
// membership migration.
func NewClusteredSatoriPolicy(k int, opt EngineOptions) func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) {
		g, _ := rdt.As[rdt.Grouper](p)
		return cluster.New(p.Space(), cluster.Options{
			K:       k,
			Inner:   func(space *resource.Space) (Policy, error) { return core.New(space, opt) },
			Grouper: g,
		})
	}
}

// NewLFOCPolicy builds the standalone LFOC baseline: the same online
// classifier, allocation computed directly from the classes (no search).
func NewLFOCPolicy(k int) func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) {
		g, _ := rdt.As[rdt.Grouper](p)
		return cluster.NewLFOC(p.Space(), cluster.LFOCOptions{K: k, Grouper: g})
	}
}

// OracleGoal selects a brute-force oracle variant.
type OracleGoal = oracle.Goal

// Oracle goals.
const (
	BalancedOracle   = oracle.Balanced
	ThroughputOracle = oracle.Throughput
	FairnessOracle   = oracle.Fairness
)

// NewOraclePolicy builds a brute-force oracle. It requires a simulated
// platform (oracles read the noise-free model — they are offline,
// practically-infeasible references).
func NewOraclePolicy(goal OracleGoal) func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) {
		sp, ok := rdt.As[*rdt.SimPlatform](p)
		if !ok {
			return nil, errNotSimulated
		}
		return oracle.New(goal, sp.Simulator(), oracle.Options{
			ThroughputMetric: SumIPS,
			FairnessMetric:   JainIndex,
		}), nil
	}
}

// NewPolicyByName builds a session policy factory from the shared policy
// name registry — the same table cmd/satori, cmd/fleet and the harness
// use, so every front-end accepts identical names. Unknown names error
// with the sorted list of valid ones. seed parameterizes stochastic
// policies (SATORI's candidate sampling, Random's draw sequence). The
// registry builds against the simulator, which the platform must have
// underneath (fault injectors and other decorators are looked through).
func NewPolicyByName(name string, seed uint64) (func(Platform) (Policy, error), error) {
	factory, err := harness.PolicyByName(name)
	if err != nil {
		return nil, err
	}
	build := harness.Bind(factory, seed)
	return func(p Platform) (Policy, error) {
		pol, err := build(p)
		if err != nil {
			return nil, fmt.Errorf("satori: policy %q: %w", name, err)
		}
		return pol, nil
	}, nil
}

// PolicyNames lists every registered policy name, sorted.
func PolicyNames() []string { return harness.PolicyNames() }

type notSimulatedError struct{}

func (notSimulatedError) Error() string {
	return "satori: oracle policies need a simulated platform (noise-free model access)"
}

var errNotSimulated = notSimulatedError{}
