package satori

import (
	"satori/internal/core"
	"satori/internal/harness"
	"satori/internal/policy"
	"satori/internal/rdt"
)

// EngineOptions re-exports the SATORI engine configuration.
type EngineOptions = core.Options

// Engine is the SATORI BO engine (policy implementation).
type Engine = core.Engine

// seeded pins the seed of one of the shared policy builders
// (internal/harness/factories.go holds the one body of each policy kind;
// the name registry builds from the same ones).
func seeded(b func(rdt.Platform, uint64) (policy.Policy, error), seed uint64) func(Platform) (Policy, error) {
	return func(p Platform) (Policy, error) { return b(p, seed) }
}

// NewSatoriPolicy builds full SATORI with dynamic goal prioritization.
// Pass the result as SessionConfig.Policy.
func NewSatoriPolicy(opt EngineOptions) func(Platform) (Policy, error) {
	return seeded(harness.Satori(opt), 0)
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
	return seeded(harness.ClusteredSatori(k, opt), 0)
}

// NewPolicyByName builds a session policy factory from the shared policy
// name registry — the same table cmd/satori, cmd/satorid, cmd/fleet and
// the harness use, so every front-end accepts identical names on every
// backend. Unknown names error with the sorted list of valid ones. seed
// parameterizes stochastic policies (SATORI's candidate sampling,
// Random's draw sequence). The policy is built against whatever platform
// the session drives; only the oracle names need the simulator
// underneath (fault injectors and other decorators are looked through)
// and fail, naming the policy, where there is none.
func NewPolicyByName(name string, seed uint64) (func(Platform) (Policy, error), error) {
	build, _, err := harness.ResolvePolicy(name, seed, 0)
	return build, err
}

// PolicyNames lists every registered policy name, sorted.
func PolicyNames() []string { return harness.PolicyNames() }
