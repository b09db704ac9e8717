package resource

import "fmt"

// Grouping maps M co-located jobs many-to-one onto K ≤ M clusters — the
// LFOC-style indirection that breaks the one-job-one-CLOS wall. Real
// resctrl hardware exposes ~16 classes of service, so per-job partitions
// cannot serve more than ~15 jobs; grouping jobs into clusters lets one
// control group (one CLOS) serve a whole cluster, and lets search-based
// policies explore the much smaller cluster-allocation space.
//
// The cluster-allocation space is itself an ordinary Space through a
// change of coordinates: a cluster-level allocation u_c must satisfy
// u_c ≥ n_c (every member job needs one unit) and Σ u_c = U_r, which
// bijects onto v_c = u_c − n_c + 1 with v_c ≥ 1 and Σ v_c = U_r − M + K —
// exactly the constraint shape Space already models. ClusterSpace returns
// that reduced space, so every existing Space operation (EqualSplit,
// Random, Neighbors, Enumerate, the GP vector encoding) works over
// clusters unchanged; ExpandInto translates a reduced cluster
// configuration back into a per-job configuration, and AggregateInto
// inverts a per-job configuration into reduced cluster coordinates.
type Grouping struct {
	// JobToCluster[j] is the cluster index of job j; cluster indices are
	// contiguous in [0, Clusters) and every cluster is non-empty.
	JobToCluster []int
	// Clusters is the number of clusters K.
	Clusters int

	// sizes[c] is the member count n_c, precomputed at construction.
	sizes []int
}

// NewGrouping validates and builds a grouping from a job→cluster map.
// Cluster indices must be contiguous starting at 0 and every cluster must
// have at least one member.
func NewGrouping(jobToCluster []int) (*Grouping, error) {
	if len(jobToCluster) == 0 {
		return nil, fmt.Errorf("resource: grouping needs at least 1 job")
	}
	k := 0
	for j, c := range jobToCluster {
		if c < 0 {
			return nil, fmt.Errorf("resource: job %d has negative cluster %d", j, c)
		}
		if c+1 > k {
			k = c + 1
		}
	}
	sizes := make([]int, k)
	for _, c := range jobToCluster {
		sizes[c]++
	}
	for c, n := range sizes {
		if n == 0 {
			return nil, fmt.Errorf("resource: cluster %d is empty (cluster indices must be contiguous)", c)
		}
	}
	return &Grouping{
		JobToCluster: append([]int(nil), jobToCluster...),
		Clusters:     k,
		sizes:        sizes,
	}, nil
}

// SingletonGrouping maps every job to its own cluster — the identity
// grouping under which clustered search is draw-identical to per-job
// search.
func SingletonGrouping(jobs int) *Grouping {
	m := make([]int, jobs)
	for j := range m {
		m[j] = j
	}
	g, err := NewGrouping(m)
	if err != nil {
		panic(err) // unreachable: the identity map is always valid
	}
	return g
}

// RoundRobinGrouping maps job j to cluster j mod k — the deterministic
// bootstrap grouping used before an online classifier has observed enough
// samples to fingerprint the jobs. k is clamped to [1, jobs].
func RoundRobinGrouping(jobs, k int) *Grouping {
	if k < 1 {
		k = 1
	}
	if k > jobs {
		k = jobs
	}
	m := make([]int, jobs)
	for j := range m {
		m[j] = j % k
	}
	g, err := NewGrouping(m)
	if err != nil {
		panic(err) // unreachable: round-robin over k ≤ jobs fills every cluster
	}
	return g
}

// Jobs returns the number of jobs M.
func (g *Grouping) Jobs() int { return len(g.JobToCluster) }

// Size returns the member count n_c of cluster c.
func (g *Grouping) Size(c int) int { return g.sizes[c] }

// IsSingleton reports whether every job has its own cluster (K = M), in
// which case ClusterSpace equals the job space and ExpandInto and
// AggregateInto are the identity.
func (g *Grouping) IsSingleton() bool { return g.Clusters == len(g.JobToCluster) }

// Equal reports whether two groupings assign identically.
func (g *Grouping) Equal(o *Grouping) bool {
	if g == nil || o == nil {
		return g == o
	}
	if g.Clusters != o.Clusters || len(g.JobToCluster) != len(o.JobToCluster) {
		return false
	}
	for j, c := range g.JobToCluster {
		if o.JobToCluster[j] != c {
			return false
		}
	}
	return true
}

// String renders the grouping for logs: "[0 1 0 2] (3 clusters)".
func (g *Grouping) String() string {
	return fmt.Sprintf("%v (%d clusters)", g.JobToCluster, g.Clusters)
}

// ClusterSpace returns the reduced cluster-allocation space for a job
// space: Jobs = K and Units′_r = U_r − M + K (the v_c = u_c − n_c + 1
// substitution). Every valid configuration of the reduced space expands
// to a valid per-job configuration of jobSpace and vice versa.
func (g *Grouping) ClusterSpace(jobSpace *Space) (*Space, error) {
	if jobSpace.Jobs != len(g.JobToCluster) {
		return nil, fmt.Errorf("resource: grouping has %d jobs, space has %d", len(g.JobToCluster), jobSpace.Jobs)
	}
	rs := make([]Resource, len(jobSpace.Resources))
	for i, r := range jobSpace.Resources {
		rs[i] = Resource{Kind: r.Kind, Units: r.Units - jobSpace.Jobs + g.Clusters}
	}
	return NewSpace(g.Clusters, rs...)
}

// ExpandInto translates a reduced cluster configuration into a per-job
// configuration, written into dst (shaped for the job space): cluster c's
// physical total u_c = v_c + n_c − 1 is split as evenly as possible among
// its members, remainder units going to the lowest-indexed member jobs
// (mirroring EqualSplit's tie-breaking).
func (g *Grouping) ExpandInto(clusterCfg Config, dst Config) {
	for r := range clusterCfg.Alloc {
		row := dst.Alloc[r]
		for j := range row {
			row[j] = 0
		}
		// First pass: every member gets the even share of its cluster's
		// physical total; remainders are handed to members in job order.
		for c, v := range clusterCfg.Alloc[r] {
			n := g.sizes[c]
			total := v + n - 1
			base := total / n
			rem := total % n
			handed := 0
			for j, jc := range g.JobToCluster {
				if jc != c {
					continue
				}
				row[j] = base
				if handed < rem {
					row[j]++
				}
				handed++
			}
		}
	}
}

// AggregateInto inverts ExpandInto: it maps a per-job configuration into
// reduced cluster coordinates, v_c = (Σ_{j∈c} u_j) − n_c + 1, written into
// dst (shaped for the cluster space). Any valid per-job configuration
// aggregates to a valid reduced configuration (each member contributes at
// least one unit, so v_c ≥ 1).
func (g *Grouping) AggregateInto(jobCfg Config, dst Config) {
	for r := range jobCfg.Alloc {
		row := dst.Alloc[r]
		for c := range row {
			row[c] = 1 - g.sizes[c]
		}
		for j, u := range jobCfg.Alloc[r] {
			row[g.JobToCluster[j]] += u
		}
	}
}
