package fleet

// POP-style sharded placement (Narayanan et al., PAPERS.md): the fleet's
// nodes are partitioned into k deterministic shards, each arriving job is
// routed to one shard, and every shard runs its placement loop over its
// own nodes and its own FIFO queue, independently and in parallel. The
// recombination rule is the trivial union — shards own disjoint node
// sets and disjoint queues, so the per-shard placements compose without
// conflict. Quality degrades gracefully with k (a shard cannot see
// capacity or imbalance outside itself — see the EXPERIMENTS.md sweep),
// while placement cost drops from O(nodes) per admission to
// O(nodes/k) per admission with k-way parallelism.
//
// Determinism: the node partition is a seeded permutation dealt
// round-robin (a pure function of the fleet seed and k), job→shard
// routing is a seeded hash of the job ID, every shard sorts its nodes
// ascending and keeps its own placer instance, and all cross-shard
// bookkeeping is aggregated in shard order after the parallel section —
// so any worker count and any shard-completion interleaving produce
// byte-identical output. With k=1 the single shard contains every node
// in index order and the placement loop reduces exactly to the
// pre-sharding fleet behavior.

import (
	"slices"

	"satori/internal/stats"
)

// shard is one independent placement subproblem: a subset of the fleet's
// nodes, a private FIFO admission queue, and a private placer instance
// (placers may carry state, e.g. RoundRobin's cursor).
type shard struct {
	id     int
	nodes  []int // global node indices, ascending
	placer Placer
	queue  []*Job
}

// mix64 finalizes a seeded hash (splitmix64 finalizer): the partition
// shuffle seed, job→shard routing and per-session node seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// buildShards partitions n nodes into k shards: a seeded permutation of
// the node indices is dealt round-robin into the shards, then each
// shard's hand is sorted ascending. The partition is a pure function of
// (seed, n, k); each shard gets a fresh placer instance.
func buildShards(seed uint64, n, k int, placerName string) ([]*shard, error) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := stats.NewRNG(mix64(seed + 0xA55A*uint64(k) + 1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	shards := make([]*shard, k)
	for s := range shards {
		placer, err := PlacerByName(placerName)
		if err != nil {
			return nil, err
		}
		shards[s] = &shard{id: s, placer: placer}
	}
	for i, nodeID := range perm {
		s := shards[i%k]
		s.nodes = append(s.nodes, nodeID)
	}
	for _, s := range shards {
		slices.Sort(s.nodes)
	}
	return shards, nil
}

// shardOf routes a job to a shard: a seeded hash of the job's arrival ID,
// independent of placement history, so the routing stream is identical
// at any worker count.
func (c *Cluster) shardOf(job *Job) *shard {
	k := uint64(len(c.shards))
	if k == 1 {
		return c.shards[0]
	}
	return c.shards[mix64(c.opt.Seed^(0x9E3779B97F4A7C15*uint64(job.ID)))%k]
}

// shardViews snapshots the shard's nodes for its placer. View IDs are
// shard-local slice indices (the Placer contract); the caller maps a
// placement back through s.nodes. With k=1 local and global indices
// coincide.
func (c *Cluster) shardViews(s *shard) []NodeView {
	out := make([]NodeView, len(s.nodes))
	for i, id := range s.nodes {
		n := c.nodes[id]
		v := NodeView{ID: i, Jobs: len(n.jobs), Capacity: c.maxJobs, Cores: c.machine.Cores}
		if n.hasLast {
			v.Speedups = n.speedups
		}
		out[i] = v
	}
	return out
}

// placeShard drains the shard's FIFO queue onto its nodes until the
// placer declines: strict FIFO — every job needs exactly one slot, so if
// the head cannot be placed, no queued job can. Views are maintained
// incrementally (an admission bumps the job count and invalidates the
// speedup snapshot), which matches rebuilding them from the live nodes.
// Only this shard's nodes and queue are touched, so shards place
// concurrently without synchronization. Step calls it only for a shard
// with a job waiting.
func (c *Cluster) placeShard(s *shard, now float64) (int, error) {
	placed := 0
	views := c.shardViews(s)
	for len(s.queue) > 0 {
		idx := s.placer.Place(s.queue[0], views)
		if idx < 0 {
			break
		}
		if err := c.nodes[s.nodes[idx]].admit(s.queue[0], now, c.opt); err != nil {
			return placed, err
		}
		views[idx].Jobs++
		views[idx].Speedups = nil
		s.queue = s.queue[1:]
		placed++
	}
	return placed, nil
}

// queued sums the shard queues, in shard order.
func (c *Cluster) queued() int {
	total := 0
	for _, s := range c.shards {
		total += len(s.queue)
	}
	return total
}
