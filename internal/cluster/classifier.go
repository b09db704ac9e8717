// Package cluster breaks the one-job-one-CLOS wall with LFOC-style
// online job clustering ("LFOC: A Lightweight Fairness-Oriented Cache
// Clustering Policy for Commodity Multicores", PAPERS.md): a streaming
// classifier fingerprints each job from the samples the control loop
// already collects — the IPS response to the allocation deltas a
// search-based policy explores — and assigns jobs to at most K clusters
// (streaming / cache-sensitive by intensity / insensitive). Jobs map
// many-to-one onto CLOS control groups, so a co-location of M jobs fits
// hardware with ~16 classes of service, and partition search runs over
// the much smaller cluster space (resource.Grouping.ClusterSpace).
//
// Everything here is a pure, deterministic function of the observation
// stream: no randomness, no clocks, no map iteration — two runs over the
// same samples classify, migrate, and allocate identically, preserving
// the repo's byte-identical reproduction regime.
package cluster

import (
	"sort"

	"satori/internal/resource"
)

// Class is a job's LFOC-style behavior class.
type Class int

const (
	// Insensitive jobs respond to neither extra cache nor extra
	// bandwidth (compute-bound, or core-bound).
	Insensitive Class = iota
	// Streaming jobs respond to bandwidth but not to cache — their
	// working set never fits, so giving them ways is pure waste that
	// LFOC avoids by penning them into a minimal-ways cluster.
	Streaming
	// CacheSensitive jobs convert LLC ways into IPS; they are spread
	// over the remaining cluster budget by sensitivity quantile so jobs
	// with similar miss-curves share a partition.
	CacheSensitive
)

// String renders the class for traces.
func (c Class) String() string {
	switch c {
	case Streaming:
		return "streaming"
	case CacheSensitive:
		return "cache-sensitive"
	default:
		return "insensitive"
	}
}

// ClassifierOptions tunes the streaming classifier. The zero value takes
// the defaults noted per field; K is the only required knob.
type ClassifierOptions struct {
	// K is the maximum cluster count (the CLOS budget). With K ≥ jobs
	// the classifier pins the singleton grouping and never migrates —
	// clustered search is then draw-identical to per-job search.
	K int
	// ReclassifyEvery is the tick period between classification rounds
	// (default 30 = 3 s).
	ReclassifyEvery int
	// MinSamples is how many observations must accumulate before the
	// first round (default 20); until then the deterministic round-robin
	// bootstrap grouping holds.
	MinSamples int
	// Hysteresis is how many consecutive rounds must propose the same
	// new grouping before a migration commits (default 2), damping
	// oscillation at class boundaries exactly like the SLO detector's
	// onset streaks.
	Hysteresis int
}

// slopeMin is the d(speedup)/d(share) threshold above which a job counts as
// cache-sensitive (its ways slope) or streaming (its bandwidth slope).
const slopeMin = 0.2

func (o ClassifierOptions) fill() ClassifierOptions {
	if o.ReclassifyEvery <= 0 {
		o.ReclassifyEvery = 30
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 20
	}
	if o.Hysteresis <= 0 {
		o.Hysteresis = 2
	}
	return o
}

// regress is an incremental simple-linear-regression accumulator: the
// slope of y (speedup) against x (resource share) over every observed
// sample, the classifier's sensitivity estimate. Allocation deltas the
// policy explores provide the x variance; without variance the slope
// reads 0 (no evidence of sensitivity).
type regress struct {
	n, sx, sy, sxx, sxy float64
}

func (r *regress) add(x, y float64) {
	r.n++
	r.sx += x
	r.sy += y
	r.sxx += x * x
	r.sxy += x * y
}

func (r *regress) slope() float64 {
	den := r.n*r.sxx - r.sx*r.sx
	if den < 1e-9 {
		return 0
	}
	return (r.n*r.sxy - r.sx*r.sy) / den
}

// Classifier fingerprints jobs online and maintains the committed
// grouping with hysteretic migrations.
type Classifier struct {
	opt   ClassifierOptions
	space *resource.Space
	// iWays and iBW are the resource-row indices of the two fingerprint
	// features (-1 when the machine does not partition that resource).
	iWays, iBW int

	ways, bw []regress
	classes  []Class
	ticks    int

	grouping  *resource.Grouping
	candidate *resource.Grouping
	streak    int

	// singleton short-circuits everything when K ≥ jobs: the identity
	// grouping is pinned, Observe is a no-op, and clustered search is
	// draw-identical to per-job search.
	singleton bool
}

// NewClassifier builds a classifier over the job space. The initial
// grouping is the identity when K ≥ jobs, otherwise the deterministic
// round-robin bootstrap (job j → cluster j mod K).
func NewClassifier(space *resource.Space, opt ClassifierOptions) *Classifier {
	opt = opt.fill()
	idx := func(kind resource.Kind) int {
		for i, r := range space.Resources {
			if r.Kind == kind {
				return i
			}
		}
		return -1
	}
	c := &Classifier{
		opt:       opt,
		space:     space,
		iWays:     idx(resource.LLCWays),
		iBW:       idx(resource.MemBW),
		ways:      make([]regress, space.Jobs),
		bw:        make([]regress, space.Jobs),
		classes:   make([]Class, space.Jobs),
		singleton: opt.K >= space.Jobs,
	}
	if c.singleton {
		c.grouping = resource.SingletonGrouping(space.Jobs)
	} else {
		c.grouping = resource.RoundRobinGrouping(space.Jobs, opt.K)
	}
	return c
}

// Grouping returns the committed job→cluster map.
func (c *Classifier) Grouping() *resource.Grouping { return c.grouping }

// Classes returns the per-job classes from the last classification round
// (all Insensitive before the first round).
func (c *Classifier) Classes() []Class { return c.classes }

// Observe feeds one interval: the per-job speedups and the configuration
// that produced them. It reports whether a membership migration was
// committed this tick (the caller must then rebuild anything dimensioned
// on the cluster space — the migration-as-churn contract).
func (c *Classifier) Observe(speedups []float64, cfg resource.Config) bool {
	if c.singleton {
		return false
	}
	for j := 0; j < c.space.Jobs && j < len(speedups); j++ {
		if c.iWays >= 0 {
			share := float64(cfg.Alloc[c.iWays][j]) / float64(c.space.Resources[c.iWays].Units)
			c.ways[j].add(share, speedups[j])
		}
		if c.iBW >= 0 {
			share := float64(cfg.Alloc[c.iBW][j]) / float64(c.space.Resources[c.iBW].Units)
			c.bw[j].add(share, speedups[j])
		}
	}
	c.ticks++
	if c.ticks < c.opt.MinSamples || c.ticks%c.opt.ReclassifyEvery != 0 {
		return false
	}
	return c.round()
}

// round runs one classification round: recompute classes, propose a
// grouping, and commit it after Hysteresis consecutive identical
// proposals that differ from the committed one.
func (c *Classifier) round() bool {
	for j := range c.classes {
		ws, bs := c.ways[j].slope(), c.bw[j].slope()
		switch {
		case ws >= slopeMin:
			c.classes[j] = CacheSensitive
		case bs >= slopeMin:
			c.classes[j] = Streaming
		default:
			c.classes[j] = Insensitive
		}
	}
	cand := c.propose()
	if cand.Equal(c.grouping) {
		c.candidate, c.streak = nil, 0
		return false
	}
	if c.candidate != nil && cand.Equal(c.candidate) {
		c.streak++
	} else {
		c.candidate, c.streak = cand, 1
	}
	if c.streak < c.opt.Hysteresis {
		return false
	}
	c.grouping = c.candidate
	c.candidate, c.streak = nil, 0
	return true
}

// propose builds the grouping the current classes imply, within the K
// budget: one cluster pens the streaming jobs, one holds the
// insensitive, and the cache-sensitive jobs spread over the remaining
// K−2 clusters by sensitivity quantile (jobs with similar miss curves
// share a partition). Bucket ids are renumbered to contiguous cluster
// indices in order of first member, so the proposal is a pure function
// of the classes and slopes.
func (c *Classifier) propose() *resource.Grouping {
	jobs := c.space.Jobs
	k := c.opt.K
	bucket := make([]int, jobs) // provisional, possibly sparse ids
	switch {
	case k <= 1:
		// One cluster: everything shares.
	case k == 2:
		// Cache-sensitive vs the rest.
		for j, cl := range c.classes {
			if cl == CacheSensitive {
				bucket[j] = 1
			}
		}
	default:
		// Sensitive jobs sorted by descending slope (ties by job index)
		// and cut into up to K−2 even quantile buckets.
		var sens []int
		for j, cl := range c.classes {
			switch cl {
			case Streaming:
				bucket[j] = 1
			case CacheSensitive:
				sens = append(sens, j)
			default:
				bucket[j] = 0
			}
		}
		buckets := k - 2
		if len(sens) < buckets {
			buckets = len(sens)
		}
		if buckets > 0 {
			sort.SliceStable(sens, func(a, b int) bool {
				sa, sb := c.ways[sens[a]].slope(), c.ways[sens[b]].slope()
				if sa != sb {
					return sa > sb
				}
				return sens[a] < sens[b]
			})
			base := len(sens) / buckets
			rem := len(sens) % buckets
			pos := 0
			for b := 0; b < buckets; b++ {
				n := base
				if b < rem {
					n++
				}
				for i := 0; i < n; i++ {
					bucket[sens[pos]] = 2 + b
					pos++
				}
			}
		}
	}
	// Renumber sparse bucket ids to contiguous cluster indices in order
	// of first member.
	next := 0
	remap := make(map[int]int, k)
	m := make([]int, jobs)
	for j, b := range bucket {
		id, ok := remap[b]
		if !ok {
			id = next
			remap[b] = id
			next++
		}
		m[j] = id
	}
	g, err := resource.NewGrouping(m)
	if err != nil {
		// Unreachable: the renumbering guarantees contiguous, non-empty
		// clusters. Fall back to the committed grouping.
		return c.grouping
	}
	return g
}
