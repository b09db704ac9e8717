// Package fleet scales the single-machine SATORI reproduction to a
// deterministic multi-node cluster under job churn — the datacenter
// setting the paper motivates (Sec. I) but does not evaluate.
//
// A Cluster runs N Nodes in lockstep 100 ms ticks. Each node is one
// complete SATORI stack — a sim.Simulator behind an rdt.SimPlatform,
// driven by its own policy engine through internal/control's
// backend-agnostic loop (the same loop behind satori.Session) —
// exactly the per-node decomposition POP (Narayanan et al.) shows is
// near-optimal for large resource-allocation problems. A JobStream feeds
// Poisson arrivals with bounded service times into a Placer, which picks
// the node each job co-locates on; departures and arrivals trigger the
// session layer's membership-change path (baseline re-measurement +
// engine re-initialization on the re-dimensioned space).
//
// Determinism contract: every node derives all of its randomness from its
// own seed (mixed from the fleet seed, node index and session
// generation), the stream draws arrival/service/profile randomness from
// its own RNG at arrival time, placement runs between ticks on snapshots
// — in POP-style shards owning disjoint node sets (see shard.go) — and
// aggregation iterates nodes and shards in index order. Shard placement
// and node stepping fan out on the harness's bounded worker pool, so any
// -workers value and any shard-completion interleaving produce
// byte-identical output; workers only change wall-clock time. With
// Options.EventDriven, idle nodes defer ticks on promises from their
// control loop and settle them lazily in one coarse jump, so per-tick
// cost tracks fleet activity instead of fleet size.
package fleet

import (
	"errors"
	"fmt"
	"math"

	"satori/internal/control"
	"satori/internal/harness"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/trace"
)

// Options configures a Cluster.
type Options struct {
	// Nodes is the cluster size (required, ≥ 1).
	Nodes int
	// Policy is the per-node partitioning policy, by registry name
	// (default "satori"; see harness.PolicyNames).
	Policy string
	// Placer selects the admission strategy, by name (default
	// "round-robin"; see PlacerNames).
	Placer string
	// Seed drives the whole fleet; equal seeds replay identically.
	Seed uint64
	// Stream tunes job churn. Stream.Seed defaults to Seed so one knob
	// reproduces the whole run.
	Stream StreamOptions
	// MaxJobsPerNode caps co-location degree per node (default 5, the
	// paper's PARSEC mix size; always clamped to what the machine can
	// partition — one unit of every resource per job).
	MaxJobsPerNode int
	// Workers bounds the per-tick node-stepping pool, following the
	// harness convention: 0 = one worker per CPU, 1 = serial.
	Workers int
	// Shards partitions placement into k independent POP-style
	// subproblems (see shard.go); clamped to [1, Nodes], default 1 —
	// a single shard over every node, the pre-sharding behavior.
	Shards int
	// EventDriven makes nodes with nothing going on — no churn, no phase
	// change, no pending baseline refresh — skip their detailed tick on
	// an idle promise from the control loop (control.Loop.IdleHorizon)
	// and catch up lazily in one batched SkipIdle before their next
	// detailed step or churn event. Per-tick fleet cost then tracks
	// *activity*, not fleet size. Trace rows hold a skipped node's last
	// reported metrics, so event-driven traces are an approximation of
	// (not byte-identical to) lockstep traces; determinism across worker
	// counts and shard parallelism is unchanged.
	EventDriven bool
	// WrapPlatform, when non-nil, wraps each node's freshly built
	// platform before the control loop boots on it — the seam fault
	// injection (rdt.FaultInjector) and instrumentation hook into. A
	// decorator either has an Unwrap() rdt.Platform method, so rdt.As
	// finds what it does not implement, or implements every capability of
	// the platform it was handed. Policies are built against the wrapped
	// platform, so an opaque decorator (no Unwrap) costs only the oracle
	// policies, which cannot reach the simulator through it.
	WrapPlatform func(node int, p rdt.Platform) rdt.Platform
	// WrapPolicy, when non-nil, wraps each policy a node's loop builds (at
	// boot and at every membership change), as WrapPlatform wraps its
	// platform.
	WrapPolicy func(node int, p policy.Policy) policy.Policy
}

// node is one machine of the fleet: a control loop (nil while idle) plus
// the jobs occupying its slots, in loop slot order.
type node struct {
	id      int
	machine sim.MachineSpec
	jobs    []*Job
	loop    *control.Loop
	gen     int // session generations, for churn-independent seeding

	// Event-driven stepping state: skip is the remaining idle promise
	// (ticks this node may defer), owed counts deferred ticks not yet
	// settled, skipped accumulates over the run for Summary.
	skip    int
	owed    int
	skipped int

	// What the fleet reads of the node's latest status, taken by step in
	// the parallel phase: its share of the fleet aggregates, so a node
	// costs O(1) at aggregation time instead of O(jobs), its per-job
	// speedups for placement, and its SLO view (lc: it has one). Valid
	// while hasLast; a membership change clears it.
	hasLast          bool
	agg              nodeAgg
	speedups         []float64
	lc, sloViolating bool
	sloAttainment    float64
}

// nodeAgg is a node's pre-reduced share of the fleet metrics: the sums
// the Jain index and geometric mean decompose into. nonPos records a
// non-positive speedup, which zeroes the geomean exactly as
// stats.GeoMean does.
type nodeAgg struct {
	jobs   int
	sumIPS float64
	sumS   float64
	sumS2  float64
	sumLog float64
	nonPos bool
}

func buildAgg(ips, speedups []float64) nodeAgg {
	a := nodeAgg{jobs: len(speedups), sumIPS: stats.Sum(ips)}
	for _, s := range speedups {
		a.sumS += s
		a.sumS2 += s * s
		if s <= 0 {
			a.nonPos = true
		} else {
			a.sumLog += math.Log(s)
		}
	}
	return a
}

// Cluster is a fleet of nodes advanced in lockstep ticks.
type Cluster struct {
	opt     Options
	machine sim.MachineSpec
	maxJobs int
	nodes   []*node
	stream  *JobStream
	shards  []*shard // placement subproblems; len 1 = unsharded

	ticks  int
	series *trace.Series
	err    error // first fatal Step error; the cluster is halted after it

	accSum, accGeo, accJain stats.Welford
	busyTicks               int
	accAttain               stats.Welford // fleet attainment over LC ticks
	violNodeTicks           int           // Σ violating-node counts over the run
	arrived, placed, done   int
	maxQueue                int
}

// ErrHalted wraps the error a Step after a fatal failure returns: the
// first failure is terminal by contract. The failed tick itself was
// accounted (tick counter advanced, trace row recorded with the healthy
// nodes' results), so a caller that blindly retries cannot double-step
// the fleet — it gets this error instead.
var ErrHalted = errors.New("fleet: cluster halted by a previous fatal error")

// fleetColumns is the per-tick CSV schema.
var fleetColumns = []string{
	"tick", "time", "jobs", "queued", "arrivals", "departures",
	"sumips", "geomean", "jain", "lcnodes", "sloviol", "attainment",
}

// New builds a cluster. Policy and placer names are resolved eagerly so
// typos fail before any simulation state exists.
func New(opt Options) (*Cluster, error) {
	if opt.Nodes < 1 {
		return nil, fmt.Errorf("fleet: Options.Nodes must be >= 1, got %d", opt.Nodes)
	}
	if opt.Policy == "" {
		opt.Policy = "satori"
	}
	if opt.Placer == "" {
		opt.Placer = "round-robin"
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Stream.Seed == 0 {
		opt.Stream.Seed = opt.Seed
	}
	// Resolve the policy once for validation; nodes rebuild per session
	// with their own seeds.
	if _, _, err := harness.ResolvePolicy(opt.Policy, 0, 0); err != nil {
		return nil, err
	}
	if opt.Shards <= 0 {
		opt.Shards = 1
	}
	if opt.Shards > opt.Nodes {
		opt.Shards = opt.Nodes
	}
	// Every node is the paper's testbed (sim.DefaultMachine).
	machine := sim.DefaultMachine()
	stream, err := NewJobStream(opt.Stream)
	if err != nil {
		return nil, err
	}
	maxJobs := opt.MaxJobsPerNode
	if maxJobs <= 0 {
		maxJobs = 5
	}
	// A node can partition at most min(units) jobs — every job needs one
	// unit of every resource.
	hardCap := machine.Cores
	if machine.LLCWays < hardCap {
		hardCap = machine.LLCWays
	}
	if machine.MemBWUnits < hardCap {
		hardCap = machine.MemBWUnits
	}
	if machine.PowerUnits > 0 && machine.PowerUnits < hardCap {
		hardCap = machine.PowerUnits
	}
	if maxJobs > hardCap {
		maxJobs = hardCap
	}
	shards, err := buildShards(opt.Seed, opt.Nodes, opt.Shards, opt.Placer)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opt:     opt,
		machine: machine,
		maxJobs: maxJobs,
		stream:  stream,
		shards:  shards,
		series:  trace.NewSeries(fleetColumns...),
	}
	for i := 0; i < opt.Nodes; i++ {
		c.nodes = append(c.nodes, &node{id: i, machine: machine})
	}
	return c, nil
}

// nodeSeed mixes the fleet seed with a node's identity and session
// generation, so node sessions draw independent streams that do not
// depend on placement history elsewhere in the fleet.
func nodeSeed(base uint64, id, gen int) uint64 {
	x := mix64(base + 0x9E3779B97F4A7C15*uint64(id+1) + 0xD1B54A32D192ED03*uint64(gen+1))
	if x == 0 {
		x = 1 // the session layer maps seed 0 to 1; keep streams distinct
	}
	return x
}

// TickStats is one tick's fleet-level outcome.
type TickStats struct {
	// Tick counts completed lockstep intervals; Time is Tick in seconds.
	Tick int
	Time float64
	// Running and Queued are the job counts after this tick's churn.
	Running, Queued int
	// Arrivals and Departures count this tick's churn events.
	Arrivals, Departures int
	// SumIPS is the fleet-wide sum of per-job IPS this tick.
	SumIPS float64
	// GeoMeanSpeedup is the geometric mean speedup over all running jobs.
	GeoMeanSpeedup float64
	// Jain is Jain's fairness index over all running jobs' speedups
	// (1 when the fleet is empty).
	Jain float64
	// LCNodes counts nodes currently tracking latency-critical jobs;
	// SLOViolatingNodes counts those whose hysteretic detector reports a
	// persistent violation. Both stay 0 for batch-only fleets.
	LCNodes, SLOViolatingNodes int
	// SLOAttainment is the mean per-node SLO attainment over LC nodes
	// (1 when the fleet tracks none).
	SLOAttainment float64
}

// Step advances the whole fleet one 100 ms tick: process departures,
// route arrivals to their shards, run each shard's placement loop (in
// parallel on the worker pool), step every node (likewise), then
// aggregate fleet metrics in node order.
//
// Errors are terminal by contract: the first failing Step halts the
// cluster and every later Step reports ErrHalted. A failure during the
// node-stepping phase still accounts its tick — the counter advances and
// the trace row is recorded with the healthy nodes' results — so the
// tick counter, Series() and node state can never desync, and a caller
// that retries cannot double-step the fleet.
func (c *Cluster) Step() (TickStats, error) {
	if c.err != nil {
		return TickStats{}, fmt.Errorf("%w: %v", ErrHalted, c.err)
	}
	now := float64(c.ticks) * sim.TickSeconds
	st := TickStats{Tick: c.ticks + 1, Time: now + sim.TickSeconds}

	// (1) Departures: evict every job whose service time has elapsed.
	// Slots are removed in descending order so indices stay valid; the
	// session's membership path re-measures baselines and rebuilds the
	// engine on the shrunken space.
	for _, n := range c.nodes {
		for slot := len(n.jobs) - 1; slot >= 0; slot-- {
			if n.jobs[slot].Departs > now+1e-9 {
				continue
			}
			if err := n.evict(slot); err != nil {
				c.err = fmt.Errorf("fleet: node %d evict: %w", n.id, err)
				return st, c.err
			}
			st.Departures++
			c.done++
		}
	}

	// (2) Arrivals are routed to their shard's FIFO queue by a seeded
	// hash of the job ID — a pure function of the stream, never of
	// placement history.
	arrivals := c.stream.ArrivalsUntil(now)
	st.Arrivals = len(arrivals)
	c.arrived += len(arrivals)
	for _, job := range arrivals {
		s := c.shardOf(job)
		s.queue = append(s.queue, job)
	}

	// (3) Placement, one independent subproblem per shard. Shards own
	// disjoint node sets and queues, so they place concurrently; the
	// recombination is the union, with bookkeeping folded in shard order.
	placedBy := make([]int, len(c.shards))
	if err := harness.ForEach(c.opt.Workers, len(c.shards), func(s int) error {
		n, err := c.placeShard(c.shards[s], now)
		placedBy[s] = n
		return err
	}); err != nil {
		c.err = fmt.Errorf("fleet: admit: %w", err)
		return st, c.err
	}
	for _, n := range placedBy {
		c.placed += n
	}
	if q := c.queued(); q > c.maxQueue {
		c.maxQueue = q
	}

	// (4) Lockstep node tick on the bounded worker pool. Each node only
	// touches its own state; ForEach guarantees the lowest-index error.
	// The tick is accounted and its row recorded even when a node fails —
	// the healthy nodes advanced, and pretending otherwise is the
	// retry-double-step bug this path once had.
	stepErr := harness.ForEach(c.opt.Workers, len(c.nodes), func(i int) error {
		return c.nodes[i].step(c.opt.EventDriven)
	})
	c.ticks++

	// (5) Fleet aggregation, strictly in node order, over per-node cached
	// partials — O(active nodes) instead of O(total jobs), which is what
	// lets the tick cost track activity at 10k nodes. The Jain index and
	// geomean decompose exactly into the cached sums, and the fixed order
	// keeps the output independent of worker count.
	st.Queued = c.queued()
	st.Jain = 1.0
	var agg nodeAgg
	for _, n := range c.nodes {
		st.Running += len(n.jobs)
		if !n.hasLast {
			continue
		}
		agg.jobs += n.agg.jobs
		agg.sumIPS += n.agg.sumIPS
		agg.sumS += n.agg.sumS
		agg.sumS2 += n.agg.sumS2
		agg.sumLog += n.agg.sumLog
		agg.nonPos = agg.nonPos || n.agg.nonPos
	}
	st.SumIPS = agg.sumIPS
	if agg.jobs > 0 {
		if !agg.nonPos {
			st.GeoMeanSpeedup = math.Exp(agg.sumLog / float64(agg.jobs))
		}
		// (Σs)²/(n·Σs²) is Jain's index; a zero sum means every
		// speedup is zero, which the CoV form treats as perfectly
		// fair (mean-zero guard).
		if agg.sumS > 0 {
			st.Jain = agg.sumS * agg.sumS / (float64(agg.jobs) * agg.sumS2)
		}
		c.accSum.Add(st.SumIPS)
		c.accGeo.Add(st.GeoMeanSpeedup)
		c.accJain.Add(st.Jain)
		c.busyTicks++
	}
	// SLO reduction: O(1) per node off the status step kept, in fixed
	// node order like the metric reductions above. A skipped node's held
	// status carries its held attainment, matching the loop's own
	// SkipIdle accounting.
	st.SLOAttainment = 1
	attainSum := 0.0
	for _, n := range c.nodes {
		if !n.hasLast || !n.lc {
			continue
		}
		st.LCNodes++
		attainSum += n.sloAttainment
		if n.sloViolating {
			st.SLOViolatingNodes++
		}
	}
	if st.LCNodes > 0 {
		st.SLOAttainment = attainSum / float64(st.LCNodes)
		c.accAttain.Add(st.SLOAttainment)
		c.violNodeTicks += st.SLOViolatingNodes
	}
	c.series.Add(float64(st.Tick), st.Time, float64(st.Running), float64(st.Queued),
		float64(st.Arrivals), float64(st.Departures), st.SumIPS, st.GeoMeanSpeedup, st.Jain,
		float64(st.LCNodes), float64(st.SLOViolatingNodes), st.SLOAttainment)
	if stepErr != nil {
		c.err = stepErr
		return st, stepErr
	}
	return st, nil
}

// Run advances n ticks, returning the last tick's stats.
func (c *Cluster) Run(n int) (TickStats, error) {
	var last TickStats
	var err error
	for i := 0; i < n; i++ {
		last, err = c.Step()
		if err != nil {
			return last, err
		}
	}
	return last, nil
}

// Series returns the per-tick fleet trace (CSV via trace.Series).
func (c *Cluster) Series() *trace.Series { return c.series }

// ShardCount returns the number of placement shards (after clamping).
func (c *Cluster) ShardCount() int { return len(c.shards) }

// Summary aggregates a fleet run.
type Summary struct {
	// Ticks is the number of completed intervals; BusyTicks counts those
	// with at least one running job (the means below average over them).
	Ticks, BusyTicks int
	// Arrived, Placed and Departed count stream jobs over the run.
	Arrived, Placed, Departed int
	// Running and Queued are the current job counts.
	Running, Queued int
	// MaxQueue is the high-water mark of the admission queue.
	MaxQueue int
	// MeanSumIPS, MeanGeoMean and MeanJain are busy-tick averages of the
	// fleet metrics.
	MeanSumIPS, MeanGeoMean, MeanJain float64
	// SkippedNodeTicks counts node-ticks deferred on idle promises over
	// the run (0 unless Options.EventDriven).
	SkippedNodeTicks int
	// LCTicks counts ticks with at least one node tracking
	// latency-critical jobs; MeanSLOAttainment averages the fleet
	// attainment over them and SLOViolatingNodeTicks sums the
	// violating-node counts. All zero for batch-only fleets.
	LCTicks               int
	MeanSLOAttainment     float64
	SLOViolatingNodeTicks int
}

// Summary returns the running aggregate.
func (c *Cluster) Summary() Summary {
	s := Summary{
		Ticks: c.ticks, BusyTicks: c.busyTicks,
		Arrived: c.arrived, Placed: c.placed, Departed: c.done,
		Queued: c.queued(), MaxQueue: c.maxQueue,
		MeanSumIPS: c.accSum.Mean(), MeanGeoMean: c.accGeo.Mean(), MeanJain: c.accJain.Mean(),
		LCTicks: c.accAttain.N(), MeanSLOAttainment: c.accAttain.Mean(),
		SLOViolatingNodeTicks: c.violNodeTicks,
	}
	for _, n := range c.nodes {
		s.Running += len(n.jobs)
		s.SkippedNodeTicks += n.skipped
	}
	return s
}

// String renders the summary. The skipped and SLO counters appear only
// when those subsystems were active, so lockstep batch-only runs render
// as before.
func (s Summary) String() string {
	out := fmt.Sprintf("ticks=%d jobs arrived=%d placed=%d departed=%d running=%d queued=%d (peak %d) | sumips=%.3g geomean=%.3f jain=%.3f",
		s.Ticks, s.Arrived, s.Placed, s.Departed, s.Running, s.Queued, s.MaxQueue,
		s.MeanSumIPS, s.MeanGeoMean, s.MeanJain)
	if s.SkippedNodeTicks > 0 {
		out += fmt.Sprintf(" skipped=%d", s.SkippedNodeTicks)
	}
	if s.LCTicks > 0 {
		out += fmt.Sprintf(" slo-attainment=%.3f slo-violating-node-ticks=%d",
			s.MeanSLOAttainment, s.SLOViolatingNodeTicks)
	}
	return out
}

// admit places job on the node at time now: the first job of an idle node
// boots a fresh control loop on a fresh simulator; later jobs go through
// the loop's AddJob churn path (re-split, baseline re-measurement, engine
// re-initialization on the re-dimensioned space).
func (n *node) admit(job *Job, now float64, opt Options) error {
	if len(n.jobs) == 0 {
		seed := nodeSeed(opt.Seed, n.id, n.gen)
		n.gen++
		build, _, err := harness.ResolvePolicy(opt.Policy, seed, 0)
		if err != nil {
			return err
		}
		if wrap := opt.WrapPolicy; wrap != nil {
			inner := build
			build = func(p rdt.Platform) (policy.Policy, error) {
				pol, err := inner(p)
				if err != nil {
					return nil, err
				}
				return wrap(n.id, pol), nil
			}
		}
		simulator, err := sim.New(n.machine, []*sim.Profile{job.Profile}, sim.Options{Seed: seed})
		if err != nil {
			return err
		}
		var platform rdt.Platform
		platform, err = rdt.NewSimPlatform(simulator)
		if err != nil {
			return err
		}
		if opt.WrapPlatform != nil {
			platform = opt.WrapPlatform(n.id, platform)
		}
		loop, err := control.New(control.Options{
			Platform: platform,
			Policy:   build,
		})
		if err != nil {
			return err
		}
		n.loop = loop
	} else {
		// An idle promise never spans churn: settle any deferred ticks so
		// the loop's clock is current before the membership change.
		if err := n.flush(); err != nil {
			return err
		}
		if err := n.loop.AddJob(job.Profile); err != nil {
			return err
		}
	}
	job.Node = n.id
	job.PlacedAt = now
	job.Departs = now + job.Duration
	n.jobs = append(n.jobs, job)
	n.hasLast = false // membership changed; last tick's status is stale
	return nil
}

// evict removes the job in the given slot; the last job tears the whole
// loop down (a machine with zero jobs has no configuration space).
func (n *node) evict(slot int) error {
	if len(n.jobs) == 1 {
		n.loop = nil
		n.skip, n.owed = 0, 0
	} else {
		// As in admit: deferred ticks are settled before churn.
		if err := n.flush(); err != nil {
			return err
		}
		if err := n.loop.RemoveJob(slot); err != nil {
			return err
		}
	}
	n.jobs = append(n.jobs[:slot], n.jobs[slot+1:]...)
	n.hasLast = false
	return nil
}

// flush settles the node's deferred ticks in one coarse batched SkipIdle
// and clears the idle promise — called before any detailed step or churn
// event so the loop's clock is always current when it matters. The
// node's reported metrics stay held at the pre-promise observation (the
// same values its trace rows carried while skipped); the detailed step or
// churn that forced the flush refreshes them immediately after.
func (n *node) flush() error {
	owed := n.owed
	n.owed, n.skip = 0, 0
	if owed == 0 || n.loop == nil {
		return nil
	}
	return n.loop.SkipIdle(owed)
}

// step advances the node one 100 ms tick; idle nodes are a no-op. A
// *control.StaleDecisionError means the node's policy and platform
// desynced after churn — a fleet-layer invariant violation, flagged as
// such rather than surfaced as a bare apply failure. In event-driven
// mode a node holding an idle promise defers the tick in O(1) — the
// deferred ticks are settled lazily by flush — and each detailed step
// asks the loop for a fresh promise (control.Loop.IdleHorizon).
func (n *node) step(event bool) error {
	if n.loop == nil {
		return nil
	}
	if event {
		if n.skip > 0 {
			n.skip--
			n.owed++
			n.skipped++
			return nil
		}
		if err := n.flush(); err != nil {
			return err
		}
	}
	st, err := n.loop.Step()
	if err != nil {
		var stale *control.StaleDecisionError
		if errors.As(err, &stale) {
			return fmt.Errorf("fleet: node %d: policy/platform desync after churn: %w", n.id, stale)
		}
		return err
	}
	n.agg = buildAgg(st.IPS, st.Speedups)
	n.speedups = st.Speedups
	n.lc, n.sloViolating, n.sloAttainment = st.SLO != nil, st.SLOViolating, st.SLOAttainment
	n.hasLast = true
	if event {
		n.skip = n.loop.IdleHorizon()
	}
	return nil
}
