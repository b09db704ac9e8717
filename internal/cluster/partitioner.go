package cluster

import (
	"fmt"

	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
)

// Options configures a Partitioner.
type Options struct {
	// K is the maximum cluster count (required ≥ 1). With K ≥ jobs the
	// partitioner runs the inner policy over the unmodified job space —
	// bit-identical draws, configurations, and plans.
	K int
	// Classifier tunes the online classifier (K is taken from above).
	Classifier ClassifierOptions
	// Inner builds the search policy over a given space (required). It
	// is invoked on the reduced cluster space at construction and again
	// after every membership migration — the migration-as-churn
	// contract: a re-dimensioned space means a rebuilt policy, exactly
	// as control.Loop rebuilds after job churn.
	Inner func(space *resource.Space) (policy.Policy, error)
	// Grouper, when non-nil, is notified of every grouping (the platform
	// capability that maps clusters onto CLOS control groups). Platforms
	// without the capability simply pass nil and the clustering stays a
	// pure search-space reduction.
	Grouper rdt.Grouper
}

// Partitioner is the cluster indirection as a policy.Policy over the JOB
// space: it classifies jobs online, lets an inner search policy (the
// SATORI BO engine, or any other) decide over the reduced cluster space,
// and expands cluster decisions back to per-job configurations. The
// control loop above it needs no changes — it keeps speaking job-level
// configurations — while the search below it sees K coordinates per
// resource instead of M, the LFOC search-speed win.
type Partitioner struct {
	jobSpace *resource.Space
	cls      *Classifier
	inner    policy.Policy
	opt      Options

	grouping     *resource.Grouping
	clusterSpace *resource.Space

	// Pooled per-tick buffers (cluster-level observation and configs).
	cIPS, cIso, cSpd []float64
	curCluster       resource.Config
	nextJob          resource.Config

	migrations    int
	rebuildFailed int
}

// New builds the partitioner over the job space. The initial grouping is
// the classifier's deterministic bootstrap (identity when K ≥ jobs,
// round-robin otherwise); the platform's Grouper capability, when wired,
// is told about it immediately so the control-group layout matches from
// the first apply.
func New(jobSpace *resource.Space, opt Options) (*Partitioner, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("cluster: Options.K must be ≥ 1, got %d", opt.K)
	}
	if opt.Inner == nil {
		return nil, fmt.Errorf("cluster: Options.Inner is required")
	}
	copt := opt.Classifier
	copt.K = opt.K
	p := &Partitioner{
		jobSpace: jobSpace,
		cls:      NewClassifier(jobSpace, copt),
		opt:      opt,
	}
	if err := p.install(p.cls.Grouping()); err != nil {
		return nil, err
	}
	return p, nil
}

// install (re)dimensions the partitioner on a grouping: build the reduced
// cluster space, rebuild the inner policy over it, resize the pooled
// buffers, and notify the platform's Grouper capability.
func (p *Partitioner) install(g *resource.Grouping) error {
	cs, err := g.ClusterSpace(p.jobSpace)
	if err != nil {
		return err
	}
	inner, err := p.opt.Inner(cs)
	if err != nil {
		return err
	}
	if p.opt.Grouper != nil {
		if err := p.opt.Grouper.SetGrouping(g); err != nil {
			return err
		}
	}
	p.grouping = g
	p.clusterSpace = cs
	p.inner = inner
	k := g.Clusters
	p.cIPS = make([]float64, k)
	p.cIso = make([]float64, k)
	p.cSpd = make([]float64, k)
	p.curCluster = cs.NewConfig()
	p.nextJob = p.jobSpace.NewConfig()
	return nil
}

// Name implements policy.Policy.
func (p *Partitioner) Name() string { return "satori-clustered" }

// Grouping returns the active job→cluster map.
func (p *Partitioner) Grouping() *resource.Grouping { return p.grouping }

// Regroups reports committed membership migrations — the optional
// policy capability control.Loop surfaces in its Summary (and treats as
// a stability boundary, like churn).
func (p *Partitioner) Regroups() int { return p.migrations }

// Inner returns the active inner policy (e.g. to read SATORI's weights).
func (p *Partitioner) Inner() policy.Policy { return p.inner }

// Decide implements policy.Policy: feed the classifier, absorb any
// membership migration (rebuild the inner policy on the re-dimensioned
// cluster space — churn semantics), aggregate the job-level observation
// into cluster coordinates, let the inner policy search the cluster
// space, and expand its decision back to a per-job configuration.
func (p *Partitioner) Decide(obs policy.Observation, current resource.Config) resource.Config {
	if p.cls.Observe(obs.Speedups, current) {
		g := p.cls.Grouping()
		if err := p.install(g); err != nil {
			// A failed rebuild keeps the previous grouping running — the
			// same hold-last-good posture the control loop takes on a
			// failed churn rebuild. The failure is counted, not hidden.
			p.rebuildFailed++
		} else {
			p.migrations++
		}
	}
	if p.grouping.IsSingleton() {
		// K ≥ jobs: the reduced space IS the job space; hand the
		// observation through untouched so the inner policy's draw
		// sequence is bit-identical to running it directly.
		return p.inner.Decide(obs, current)
	}
	// Aggregate per-job signals per cluster: IPS and isolated baselines
	// sum (cluster throughput over cluster capacity), speedup is the
	// cluster-level ratio.
	for c := 0; c < p.grouping.Clusters; c++ {
		p.cIPS[c], p.cIso[c], p.cSpd[c] = 0, 0, 0
	}
	for j, c := range p.grouping.JobToCluster {
		if j < len(obs.IPS) {
			p.cIPS[c] += obs.IPS[j]
		}
		if j < len(obs.Isolated) {
			p.cIso[c] += obs.Isolated[j]
		}
	}
	for c := range p.cSpd {
		if p.cIso[c] > 0 {
			p.cSpd[c] = p.cIPS[c] / p.cIso[c]
		}
	}
	cObs := obs
	cObs.IPS = p.cIPS
	cObs.Isolated = p.cIso
	cObs.Speedups = p.cSpd
	p.grouping.AggregateInto(current, p.curCluster)
	next := p.inner.Decide(cObs, p.curCluster)
	if err := p.clusterSpace.Validate(next); err != nil {
		// A malformed inner decision cannot be expanded; hold the
		// current job-level partition (always a legal return).
		return current
	}
	p.grouping.ExpandInto(next, p.nextJob)
	return p.nextJob
}
