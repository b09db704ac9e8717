package harness

import (
	"fmt"

	"satori/internal/cluster"
	"satori/internal/core"
	"satori/internal/policies/copart"
	"satori/internal/policies/dcat"
	"satori/internal/policies/oracle"
	"satori/internal/policies/parties"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
)

// builder is how every policy in the repository is built: against the
// platform the control loop drives — bare simulator, fault-injected
// simulator, resctrl tree, any decorator — with the run's seed. Most
// policies read only p.Space(); the clustered ones find the Grouper
// capability with rdt.As; only the oracles need a simulator underneath.
// This file holds the one body of each policy kind: the name registry
// (which satori.NewPolicyByName reads), the PolicyFactory adapters below
// and the two engine-option constructors beside NewPolicyByName all share
// it. Builders must be safe to call from concurrent runs: captured
// options are copied, never mutated.
type builder = func(p rdt.Platform, seed uint64) (policy.Policy, error)

// Satori builds full SATORI (or a variant, via opt). The seed applies
// unless opt pins its own.
func Satori(opt core.Options) func(rdt.Platform, uint64) (policy.Policy, error) {
	return func(p rdt.Platform, seed uint64) (policy.Policy, error) {
		return core.New(p.Space(), withSeed(opt, seed))
	}
}

// withSeed applies the run's seed unless opt pins its own.
func withSeed(opt core.Options, seed uint64) core.Options {
	if opt.Seed == 0 {
		opt.Seed = seed
	}
	return opt
}

// StaticSatori builds the no-dynamic-prioritization variant with a fixed
// throughput weight (0.5 for the Fig. 14(b)/17/18 comparison, 1 or 0 for
// the single-goal Throughput/Fairness SATORI variants).
func StaticSatori(wT float64) func(rdt.Platform, uint64) (policy.Policy, error) {
	return Satori(staticOptions(wT, ""))
}

func staticOptions(wT float64, name string) core.Options {
	return core.Options{
		Scheduler: core.SchedulerOptions{Mode: core.WeightsStatic},
		StaticWT:  wT,
		Name:      name,
	}
}

// Random builds the Random Search baseline; seed is its draw sequence.
func Random(p rdt.Platform, seed uint64) (policy.Policy, error) {
	return policy.NewRandom(p.Space(), seed), nil
}

// Static builds the hold-equal-partition baseline.
func Static(rdt.Platform, uint64) (policy.Policy, error) { return policy.Static{}, nil }

// DCAT builds the dCAT baseline.
func DCAT(p rdt.Platform, _ uint64) (policy.Policy, error) {
	return dcat.New(p.Space(), dcat.Options{})
}

// CoPart builds the CoPart baseline.
func CoPart(p rdt.Platform, _ uint64) (policy.Policy, error) {
	return copart.New(p.Space(), copart.Options{})
}

// PARTIES builds the adapted-PARTIES baseline.
func PARTIES(p rdt.Platform, _ uint64) (policy.Policy, error) {
	return parties.New(p.Space(), parties.Options{}), nil
}

// Oracle builds a brute-force oracle of the given goal. Oracles search
// the simulator's noise-free model, so the platform must have a
// simulator underneath (decorators are looked through).
func Oracle(goal oracle.Goal, opt oracle.Options) func(rdt.Platform, uint64) (policy.Policy, error) {
	return func(p rdt.Platform, seed uint64) (policy.Policy, error) {
		sp, ok := rdt.As[*rdt.SimPlatform](p)
		if !ok {
			return nil, fmt.Errorf("harness: %s searches the simulator's noise-free model, and %T has no simulator underneath", goal, p)
		}
		o := opt
		if o.Seed == 0 {
			o.Seed = seed
		}
		return oracle.New(goal, sp.Simulator(), o), nil
	}
}

// ClusteredSatori builds SATORI behind the cluster indirection: jobs are
// classified online into at most k clusters (cluster.Classifier) and the
// BO engine searches the reduced cluster space instead of the per-job
// space. With k ≥ jobs the partitioner is draw-identical to plain
// SATORI; with jobs ≫ k it fits hardware CLOS budgets and shrinks the
// search dimension. When the platform has the Grouper capability (the
// simulator and the resctrl backend do, behind any decorator) the
// grouping is pushed down, so the platform holds one control group per
// cluster.
func ClusteredSatori(k int, opt core.Options) func(rdt.Platform, uint64) (policy.Policy, error) {
	return func(p rdt.Platform, seed uint64) (policy.Policy, error) {
		o := withSeed(opt, seed)
		g, _ := rdt.As[rdt.Grouper](p)
		return cluster.New(p.Space(), cluster.Options{
			K:       k,
			Inner:   func(space *resource.Space) (policy.Policy, error) { return core.New(space, o) },
			Grouper: g,
		})
	}
}

// LFOC builds the standalone LFOC baseline: the same online classifier,
// but allocation computed directly from the classes with no search
// (cluster.LFOC) — the comparison point that isolates what cluster-level
// BO search adds over clustering alone.
func LFOC(k int) func(rdt.Platform, uint64) (policy.Policy, error) {
	return func(p rdt.Platform, _ uint64) (policy.Policy, error) {
		g, _ := rdt.As[rdt.Grouper](p)
		return cluster.NewLFOC(p.Space(), cluster.LFOCOptions{K: k, Grouper: g})
	}
}

// salted mixes salt into the seed a builder sees, so two stochastic
// policies of one run do not draw the same stream.
func salted(b builder, salt uint64) builder {
	return func(p rdt.Platform, seed uint64) (policy.Policy, error) { return b(p, seed^salt) }
}

// onSim adapts a builder to the harness's PolicyFactory shape: the
// simulator platform is an rdt.Platform like any other.
func onSim(b builder) PolicyFactory {
	return func(p *rdt.SimPlatform, seed uint64) (policy.Policy, error) { return b(p, seed) }
}

// SatoriFactory is Satori as a RunSpec/NamedFactory policy.
func SatoriFactory(opt core.Options) PolicyFactory { return onSim(Satori(opt)) }

// SatoriStaticFactory is StaticSatori as a RunSpec/NamedFactory policy.
func SatoriStaticFactory(wT float64) PolicyFactory { return onSim(StaticSatori(wT)) }

// ClusteredSatoriFactory is ClusteredSatori as a RunSpec/NamedFactory
// policy.
func ClusteredSatoriFactory(k int, opt core.Options) PolicyFactory {
	return onSim(ClusteredSatori(k, opt))
}

// oracleSalt separates an oracle's restart randomness from the seed the
// run's other consumers draw from.
const oracleSalt = 0x0C1E

// OracleFactory is Oracle as a RunSpec/NamedFactory policy.
func OracleFactory(goal oracle.Goal, opt oracle.Options) PolicyFactory {
	return onSim(salted(Oracle(goal, opt), oracleSalt))
}

// NamedFactory pairs a display name with a factory, in the order results
// tables list policies.
type NamedFactory struct {
	Name    string
	Factory PolicyFactory
}

// CompetingPolicies returns the paper's Fig. 7 line-up: Random, dCAT,
// CoPart, PARTIES, SATORI (the Balanced Oracle reference is run
// separately as the normalization ceiling). The factories come from the
// shared name registry so every front-end builds identical policies.
func CompetingPolicies() []NamedFactory {
	return lineup("random", "dcat", "copart", "parties", "satori")
}

// lineup resolves registered names into result-table rows, in order.
func lineup(names ...string) []NamedFactory {
	out := make([]NamedFactory, len(names))
	for i, name := range names {
		f, err := PolicyByName(name)
		if err != nil {
			panic(err) // callers pass statically registered names
		}
		out[i] = NamedFactory{Name: name, Factory: f}
	}
	return out
}
