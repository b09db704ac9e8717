package cluster

import (
	"fmt"
	"sort"

	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
)

// LFOCOptions configures the standalone LFOC baseline.
type LFOCOptions struct {
	// K is the maximum cluster count (required ≥ 1).
	K int
	// Grouper, when non-nil, is notified of every grouping.
	Grouper rdt.Grouper
}

// LFOC is the lightweight fairness-oriented clustering baseline: no
// search at all. Jobs are classified online exactly as for clustered
// SATORI, but the allocation is computed directly from the classes —
// streaming jobs are penned into a minimal-ways cluster (their misses
// would otherwise thrash every cache partition), insensitive jobs get
// the floor, and cache-sensitive clusters receive the remaining ways;
// bandwidth favors the streamers, cores split proportionally. The
// allocation is recomputed only when membership migrates and held
// otherwise, which is what makes LFOC "lightweight" — and what it gives
// up against SATORI's continual BO search (the jobs≫classes ablation
// quantifies the gap).
type LFOC struct {
	jobSpace *resource.Space
	cls      *Classifier
	opt      LFOCOptions

	grouping *resource.Grouping
	target   resource.Config
	have     bool

	migrations int
}

// NewLFOC builds the baseline over the job space.
func NewLFOC(jobSpace *resource.Space, opt LFOCOptions) (*LFOC, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("cluster: LFOCOptions.K must be ≥ 1, got %d", opt.K)
	}
	l := &LFOC{
		jobSpace: jobSpace,
		cls:      NewClassifier(jobSpace, ClassifierOptions{K: opt.K}),
		opt:      opt,
		target:   jobSpace.NewConfig(),
	}
	l.grouping = l.cls.Grouping()
	if opt.Grouper != nil {
		if err := opt.Grouper.SetGrouping(l.grouping); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Name implements policy.Policy.
func (l *LFOC) Name() string { return "lfoc" }

// Regroups reports committed membership migrations.
func (l *LFOC) Regroups() int { return l.migrations }

// Decide implements policy.Policy.
func (l *LFOC) Decide(obs policy.Observation, current resource.Config) resource.Config {
	migrated := l.cls.Observe(obs.Speedups, current)
	if migrated {
		l.grouping = l.cls.Grouping()
		if l.opt.Grouper != nil {
			if err := l.opt.Grouper.SetGrouping(l.grouping); err != nil {
				// Hold the last good allocation; the platform kept the
				// previous grouping.
				return current
			}
		}
		l.migrations++
	}
	if migrated || !l.have {
		l.allocate()
		l.have = true
	}
	return l.target
}

// classBoost is the per-resource weight multiplier LFOC's allocation rule
// assigns each class: ways concentrate on cache-sensitive clusters (and
// are explicitly withheld from streamers), bandwidth favors streamers,
// cores and power split proportionally to membership.
func classBoost(kind resource.Kind, cl Class) float64 {
	switch kind {
	case resource.LLCWays:
		switch cl {
		case CacheSensitive:
			return 4
		default: // Streaming and Insensitive stay near the floor.
			return 0.5
		}
	case resource.MemBW:
		switch cl {
		case Streaming:
			return 3
		case Insensitive:
			return 0.5
		default:
			return 1
		}
	default: // Cores, Power: proportional.
		return 1
	}
}

// allocate recomputes the per-job target from the grouping and classes:
// every cluster starts at its floor (one unit per member), and each
// resource's leftover units are apportioned to clusters by
// members × classBoost with largest-remainder rounding (ties to the
// lower cluster index), then split within clusters exactly as
// Grouping.ExpandInto does.
func (l *LFOC) allocate() {
	g := l.grouping
	classes := l.cls.Classes()
	k := g.Clusters
	// A cluster's class is its first member's (propose() builds clusters
	// class-pure, so any member is representative).
	clusterClass := make([]Class, k)
	seen := make([]bool, k)
	for j, c := range g.JobToCluster {
		if !seen[c] {
			clusterClass[c] = classes[j]
			seen[c] = true
		}
	}
	cs, err := g.ClusterSpace(l.jobSpace)
	if err != nil {
		// Unreachable: the grouping always spans the job space.
		l.target = l.jobSpace.EqualSplit()
		return
	}
	cc := cs.NewConfig()
	for r, res := range l.jobSpace.Resources {
		totals := make([]int, k)
		left := res.Units
		for c := 0; c < k; c++ {
			totals[c] = g.Size(c) // the floor: one unit per member
			left -= totals[c]
		}
		if left > 0 {
			weights := make([]float64, k)
			sum := 0.0
			for c := 0; c < k; c++ {
				weights[c] = float64(g.Size(c)) * classBoost(res.Kind, clusterClass[c])
				sum += weights[c]
			}
			apportion(totals, weights, sum, left)
		}
		for c := 0; c < k; c++ {
			cc.Alloc[r][c] = totals[c] - g.Size(c) + 1 // reduced coordinates
		}
	}
	g.ExpandInto(cc, l.target)
}

// apportion distributes extra units over clusters proportionally to
// weights with largest-remainder rounding; remainder ties break to the
// lower cluster index, keeping the rule fully deterministic.
func apportion(totals []int, weights []float64, sum float64, extra int) {
	if sum <= 0 {
		// Degenerate weights: hand everything to cluster 0.
		totals[0] += extra
		return
	}
	type frac struct {
		c int
		f float64
	}
	rem := extra
	fracs := make([]frac, len(totals))
	for c := range totals {
		quota := float64(extra) * weights[c] / sum
		whole := int(quota)
		totals[c] += whole
		rem -= whole
		fracs[c] = frac{c, quota - float64(whole)}
	}
	sort.SliceStable(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].c < fracs[b].c
	})
	for i := 0; i < rem; i++ {
		totals[fracs[i%len(fracs)].c]++
	}
}
