package harness

import (
	"fmt"
	"sort"
	"strings"

	"satori/internal/core"
	"satori/internal/policies/oracle"
	"satori/internal/policy"
	"satori/internal/rdt"
)

// defaultClusterK is the control-group budget the clustered policies run
// under when no explicit one is given.
const defaultClusterK = 8

// clite is a CLITE-style policy (Patel & Tiwari, HPCA'20 [68] in the
// paper's numbering): the authors' earlier BO-based partitioner for
// latency-critical co-location, which in SATORI's problem setting amounts
// to the same BO engine with a static objective — no dynamic goal
// prioritization. Sec. VI reports it performs like PARTIES here and
// underperforms SATORI by a similar margin.
var clite = Satori(staticOptions(0.5, "clite"))

// random is the Random Search baseline as the registry seeds it: salted
// away from the stream the run's simulator draws from.
var random = salted(Random, 0xAD03)

func clusteredSatori(k int) builder { return ClusteredSatori(k, core.Options{}) }

// policyEntry is one row of the name table.
type policyEntry struct {
	build builder
	// clustered, where an explicit cluster budget applies to the name,
	// rebuilds the entry at that budget; k is the budget build itself
	// runs under (0: one control group per job).
	clustered func(k int) builder
	k         int
}

// policyRegistry is the only name→policy table in the repository: every
// front-end (cmd/satori on both backends, cmd/satorid, cmd/fleet,
// cmd/experiments via the harness, satori.NewPolicyByName) resolves
// names here, through ResolvePolicy or PolicyByName.
var policyRegistry = map[string]policyEntry{
	"satori":            {build: Satori(core.Options{}), clustered: clusteredSatori},
	"satori-slo":        {build: Satori(core.Options{Scheduler: core.SchedulerOptions{Mode: core.WeightsSLOAware}})},
	"satori-static":     {build: StaticSatori(0.5)},
	"satori-throughput": {build: StaticSatori(1)},
	"satori-fairness":   {build: StaticSatori(0)},
	"clite":             {build: clite},
	"satori-clustered":  {build: clusteredSatori(defaultClusterK), clustered: clusteredSatori, k: defaultClusterK},
	"lfoc":              {build: LFOC(defaultClusterK), clustered: LFOC, k: defaultClusterK},
	"random":            {build: random},
	"static":            {build: Static},
	"dcat":              {build: DCAT},
	"copart":            {build: CoPart},
	"parties":           {build: PARTIES},
	"balanced-oracle":   {build: salted(Oracle(oracle.Balanced, oracle.Options{}), oracleSalt)},
	"throughput-oracle": {build: salted(Oracle(oracle.Throughput, oracle.Options{}), oracleSalt)},
	"fairness-oracle":   {build: salted(Oracle(oracle.Fairness, oracle.Options{}), oracleSalt)},
}

// PolicyNames lists every registered policy name, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyRegistry))
	for name := range policyRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func lookupPolicy(name string) (policyEntry, error) {
	e, ok := policyRegistry[name]
	if !ok {
		return e, fmt.Errorf("harness: unknown policy %q (valid: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	return e, nil
}

// ResolvePolicy turns (name, seed, cluster budget) into the builder
// control.Options.Policy takes — built, and after churn rebuilt, against
// the platform the loop drives. Unknown names error with the sorted list
// of valid ones. clusterK is the -cluster-k flag and is interpreted here
// and nowhere else: 0 keeps the name's own budget; a positive K reruns
// satori-clustered or lfoc at K control groups and turns satori into
// satori-clustered, and is an error for every other name. k reports the
// budget the policy runs under (0: one control group per job), for
// backends that must boot under a grouping that fits it.
func ResolvePolicy(name string, seed uint64, clusterK int) (build func(rdt.Platform) (policy.Policy, error), k int, err error) {
	e, err := lookupPolicy(name)
	if err != nil {
		return nil, 0, err
	}
	if clusterK > 0 {
		if e.clustered == nil {
			return nil, 0, fmt.Errorf("-cluster-k only applies to the satori, satori-clustered, and lfoc policies (got -policy %s)", name)
		}
		e.build, e.k = e.clustered(clusterK), clusterK
	}
	return func(p rdt.Platform) (policy.Policy, error) {
		pol, err := e.build(p, seed)
		if err != nil {
			return nil, fmt.Errorf("policy %q: %w", name, err)
		}
		return pol, nil
	}, e.k, nil
}

// PolicyByName resolves a policy name to a harness factory (the
// RunSpec/NamedFactory shape). Unknown names error with the sorted list
// of valid names.
func PolicyByName(name string) (PolicyFactory, error) {
	e, err := lookupPolicy(name)
	if err != nil {
		return nil, err
	}
	return onSim(e.build), nil
}
