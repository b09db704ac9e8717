package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"satori"
	"satori/internal/cluster"
	"satori/internal/core"
	"satori/internal/fleet"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// env is what one round of a workload runs under.
type env struct {
	seed uint64
	// scale multiplies every fixed count (warm-up ticks, the exact-per-seed
	// prefix, fleet sizes stay) so a smoke run finishes in a fraction of a
	// second; the driver always runs at 1.
	scale float64
	// slice is how long the round measures after its set-up.
	slice time.Duration
	// tr is nil on an untraced round.
	tr *tracer
}

// traceOn starts recording spans: set-up ran with the tracer paused.
func (e env) traceOn() {
	if e.tr != nil {
		e.tr.paused.Store(false)
	}
}

// n scales a count, never below lo.
func (e env) n(count, lo int) int {
	v := int(math.Round(float64(count) * e.scale))
	if v < lo {
		return lo
	}
	return v
}

// result is one round's outcome.
type result struct {
	// setup is the set-up time in reference-host seconds (see meter.go),
	// rawSetup as the wall clock saw it.
	setup, rawSetup time.Duration
	// m holds every measured operation's wall time (for the open loop:
	// latency from the request's due time) and the control intervals per
	// second of every chunk of the measured window, raw and corrected.
	m *meter
	// ticks is the number of control intervals the measured window covered.
	ticks             float64
	attempted, failed int64
	// quality is (throughput score, fairness score) and digest a hash of
	// the simulated statistics, both taken after a fixed number of
	// measured operations so that they repeat exactly per seed.
	quality [2]float64
	digest  string
	// mallocs is the heap-allocation count over the measured window.
	mallocs uint64
	// liveHeap is the heap still reachable, in bytes, after a forced
	// collection at the same fixed point the scores are taken at (so that
	// it does not depend on how far a fast host got).
	liveHeap uint64
	// counters are per-layer counts read off the workload itself.
	counters map[string]float64
	// extras are workload-specific per-layer numbers printed as text only.
	extras []metric
	// errs lists output checks that did not hold.
	errs []string
	// shape is the traced session the layer metrics and probes read; set
	// on traced rounds of the node workloads.
	shape *shapeRun
}

type metric struct {
	name  string
	value float64
	unit  string
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// deterministic workloads print a digest that must repeat per seed.
	deterministic bool
	// opName names the workload's operation span.
	opName string
	// rounds is how many times an untraced run sets the workload up and
	// measures it, each time on a seed of its own.
	rounds int
	// run sets the workload up, then measures for e.slice.
	run func(e env) (*result, error)
	// shape builds and runs a traced single-node session of the shape the
	// workload gives its engines, for workloads whose own run does not
	// expose the policy and platform seams. Nil for the node workloads,
	// whose traced round is that session.
	shape func(e env) (*shapeRun, error)
}

var allWorkloads = []workload{
	{
		name: "node_steady", deterministic: true, opName: "control.step", rounds: 4,
		why: "paper testbed, 5 PARSEC jobs, default policy: the steady-state engine path (full window, batched scoring of a 110-160-candidate pool)",
		run: func(e env) (*result, error) { return runNode(e, nodeSteady) },
	},
	{
		name: "node_wide", deterministic: true, opName: "control.step", rounds: 4,
		why: "24 jobs on a 48c/32w/24bw machine, per-job search: dimension 72 and a pool of thousands, so candidate fill and the n x c solve dominate",
		run: func(e env) (*result, error) { return runNode(e, nodeWide) },
	},
	{
		// Where the classifier settles decides what a clustered tick costs
		// (long runs of single seeds differ twofold), so this workload
		// spends its time on many short rounds instead of a few long ones.
		name: "node_clustered", deterministic: true, opName: "control.step", rounds: 40,
		why: "same machine and jobs as node_wide under satori-clustered K=8: the bypass partner, where the large pool is gone and the classifier works",
		run: func(e env) (*result, error) { return runNode(e, nodeClustered) },
	},
	{
		name: "fleet_churn", deterministic: true, opName: "fleet.step", rounds: 4,
		why:   "busy fleet, ~3.9 jobs/node with arrivals and departures every tick: engines are rebuilt constantly (reset, append, factorize, baselines)",
		run:   func(e env) (*result, error) { return runFleet(e, fleetChurn) },
		shape: func(e env) (*shapeRun, error) { return shapeSession(e, 4, false) },
	},
	{
		name: "fleet_sparse", deterministic: true, opName: "fleet.step", rounds: 4,
		why:   "trough-hours fleet, mostly one job per node: time goes to idle skipping, sampled stepping and aggregation, not to the engine",
		run:   func(e env) (*result, error) { return runFleet(e, fleetSparse) },
		shape: func(e env) (*shapeRun, error) { return shapeSession(e, 1, false) },
	},
	{
		name: "suite_fig7", deterministic: true, opName: "harness.pass", rounds: 4,
		why:   "the researcher's path: fig 7's nine policies plus the Balanced Oracle over PARSEC mixes through harness.RunSuite, cell cache off",
		run:   runSuite,
		shape: func(e env) (*shapeRun, error) { return shapeSession(e, 5, false) },
	},
	{
		name: "daemon_churn", deterministic: false, opName: "server.request", rounds: 6,
		why:   "satorid's stack behind HTTP, open loop 100 req/s with job churn and goal switches while the tick goroutine free-runs on the same lock",
		run:   runDaemon,
		shape: func(e env) (*shapeRun, error) { return shapeSession(e, 5, true) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digester hashes simulated statistics bit for bit.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) floats(label string, vs ...float64) {
	fmt.Fprintf(d.h, "%s", label)
	for _, v := range vs {
		fmt.Fprintf(d.h, " %016x", math.Float64bits(v))
	}
	fmt.Fprintln(d.h)
}

func (d digester) text(s string) { fmt.Fprintln(d.h, s) }

func (d digester) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:12]) }

// closedLoop runs a closed loop's measured window: operation after
// operation, each advancing ticksPerOp control intervals, until `prefix`
// operations are done and the slice has run out. step is the timed
// operation; atPrefix runs, untimed, after each of the first `prefix`
// operations, which is where the exact-per-seed statistics are taken.
func closedLoop(e env, m *meter, ticksPerOp float64, prefix int, step func() error, atPrefix func(n int)) error {
	now := time.Now()
	deadline := now.Add(e.slice)
	for n := 1; n <= prefix || now.Before(deadline); n++ {
		var sp int32
		if e.tr != nil {
			sp = e.tr.beginOp(int32(n))
		}
		err := step()
		if e.tr != nil {
			e.tr.endOp(sp)
		}
		m.record(time.Since(now), ticksPerOp)
		if err != nil {
			return fmt.Errorf("operation %d: %w", n, err)
		}
		if n <= prefix {
			atPrefix(n)
		}
		now = time.Now()
	}
	m.finish()
	return nil
}

func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// liveHeapOf collects garbage and returns the bytes still reachable while
// keep — the workload's state — is alive.
func liveHeapOf(keep any) uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return m.HeapAlloc
}

// ---- single-node workloads -------------------------------------------------

// nodeSpec describes a single-node session workload.
type nodeSpec struct {
	machine  sim.MachineSpec
	profiles func() []*sim.Profile
	// policy builds the session policy; nil selects the default (full
	// SATORI), exactly as a caller of satori.NewSession gets it.
	policy func(seed uint64) func(satori.Platform) (satori.Policy, error)
	// warm and prefix are tick counts at scale 1: warm-up before timing,
	// and the measured ticks after which quality and digest are taken.
	warm, prefix int
	sampled      bool
	goalSwitch   bool
}

// wideMachine is the `cluster` experiment's machine: room for 24 jobs.
func wideMachine() sim.MachineSpec {
	return sim.MachineSpec{
		Cores: 48, LLCWays: 32, MemBWUnits: 24,
		MemBWBytesPerUnit: 7.68e9, LineBytes: 64, MinPowerScale: 0.55,
	}
}

func cycledPARSEC(n int) []*sim.Profile {
	base := workloads.PARSEC()
	out := make([]*sim.Profile, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

func paperMix0() []*sim.Profile {
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		panic(err) // the suite name is a constant
	}
	return mixes[0].Profiles
}

var nodeSteady = nodeSpec{
	machine: sim.DefaultMachine(), profiles: paperMix0,
	warm: 2000, prefix: 2000,
}

var nodeWide = nodeSpec{
	machine: wideMachine(), profiles: func() []*sim.Profile { return cycledPARSEC(24) },
	warm: 300, prefix: 200,
}

var nodeClustered = nodeSpec{
	machine: wideMachine(), profiles: func() []*sim.Profile { return cycledPARSEC(24) },
	policy: func(seed uint64) func(satori.Platform) (satori.Policy, error) {
		return satori.NewClusteredSatoriPolicy(8, satori.EngineOptions{Seed: seed})
	},
	warm: 300, prefix: 250,
}

// newSession builds the workload's session. Untraced it goes through
// satori.NewSession like any library user; traced it assembles the same
// simulator and platform by hand so that both can be wrapped, and hands
// them to satori.NewSessionOn. The digest check proves the two agree.
func (s nodeSpec) newSession(seed uint64, tr *tracer) (*satori.Session, error) {
	cfg := satori.SessionConfig{
		Machine: &s.machine, Workloads: s.profiles(), Seed: seed,
		Sampled: s.sampled, SLOGoalSwitch: s.goalSwitch,
	}
	if s.policy != nil {
		cfg.Policy = s.policy(seed)
	}
	if tr == nil {
		return satori.NewSession(cfg)
	}
	simulator, err := sim.New(s.machine, cfg.Workloads, sim.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	platform, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		return nil, err
	}
	build := cfg.Policy
	if build == nil {
		build = satori.NewSatoriPolicy(satori.EngineOptions{Seed: seed})
	}
	cfg.Policy = func(p satori.Platform) (satori.Policy, error) {
		in, err := build(p)
		if err != nil {
			return nil, err
		}
		return tracePolicy(in, tr), nil
	}
	return satori.NewSessionOn(tracePlatform(platform, tr), cfg)
}

func runNode(e env, s nodeSpec) (*result, error) {
	var sess *satori.Session
	res := &result{m: newMeter(1<<17, 1)}
	var err error
	res.rawSetup, res.setup, err = timeSetup(1, func() error {
		var err error
		if sess, err = s.newSession(e.seed, e.tr); err != nil {
			return err
		}
		if _, err := sess.Run(e.n(s.warm, 20)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.traceOn()

	prefix := e.n(s.prefix, 20)
	every := max(1, prefix/4)
	dig := newDigester()
	m0 := mallocCount()
	var last satori.Status
	err = closedLoop(e, res.m, 1, prefix,
		func() (err error) { last, err = sess.Step(); return err },
		func(n int) {
			if n%every == 0 {
				dig.floats(fmt.Sprint("tick ", n), 0.5*last.Throughput+0.5*last.Fairness)
			}
			if n == prefix {
				sum := sess.Summary()
				res.quality = [2]float64{sum.MeanThroughput, sum.MeanFairness}
				dig.text(sum.String())
				dig.floats("means", sum.MeanThroughput, sum.MeanFairness, sum.MeanObjective)
				dig.text(last.Config.Key())
				res.digest = dig.sum()
				res.liveHeap = liveHeapOf(sess)
			}
		})
	if err != nil {
		return nil, err
	}
	res.mallocs = mallocCount() - m0
	res.ticks = float64(len(res.m.ops))

	sum := sess.Summary()
	res.attempted = int64(len(res.m.ops))
	res.failed = int64(sum.RejectedApplies + sum.BadSamples + sum.SampleErrors)
	if err := sess.SpaceInfo().Validate(last.Config); err != nil {
		res.errs = append(res.errs, "final configuration invalid: "+err.Error())
	}
	if e.tr != nil {
		res.shape = &shapeRun{sess: sess, tr: e.tr, ticks: len(res.m.ops), machine: s.machine, profiles: s.profiles()}
	}
	return res, nil
}

// shapeRun is a traced single-node session that has run: the source of the
// control/core/rdt span metrics and of the shapes the probes replay.
type shapeRun struct {
	sess  *satori.Session
	tr    *tracer
	ticks int
	// speed is the host-speed correction for the session's span times
	// (median chunk factor while it ran; see meter.go).
	speed    float64
	machine  sim.MachineSpec
	profiles []*sim.Profile
}

// shapeSession runs a fresh traced session of `jobs` jobs on the default
// machine for 600 ticks from cold — one engine lifetime as the fleet, the
// suite and the daemon give their engines (rebuilt on every membership
// change; 600-tick cells).
func shapeSession(e env, jobs int, lc bool) (*shapeRun, error) {
	spec := nodeSpec{machine: sim.DefaultMachine(), sampled: !lc, goalSwitch: lc}
	spec.profiles = func() []*sim.Profile { return cycledPARSEC(jobs) }
	if lc {
		spec.profiles = daemonStartMix
	}
	tr := newTracer("control.step", 1<<16)
	sess, err := spec.newSession(e.seed, tr)
	if err != nil {
		return nil, err
	}
	ticks := e.n(600, 40)
	m := newMeter(ticks, 1)
	for n := 1; n <= ticks; n++ {
		now := time.Now()
		sp := tr.beginOp(int32(n))
		_, err := sess.Step()
		tr.endOp(sp)
		m.record(time.Since(now), 1)
		if err != nil {
			return nil, fmt.Errorf("shape session step %d: %w", n, err)
		}
	}
	m.finish()
	return &shapeRun{sess: sess, tr: tr, ticks: ticks, speed: median(m.factors), machine: spec.machine, profiles: spec.profiles()}, nil
}

// engineOf digs the BO engine and its search space out of a session's
// policy: directly for per-job SATORI, behind the partitioner for the
// clustered policy (whose engine searches the cluster space).
func engineOf(sess *satori.Session) (*core.Engine, *resource.Space) {
	switch p := unwrapPolicy(sess.Policy()).(type) {
	case *core.Engine:
		return p, sess.SpaceInfo()
	case *cluster.Partitioner:
		eng, _ := p.Inner().(*core.Engine)
		space, err := p.Grouping().ClusterSpace(sess.SpaceInfo())
		if err != nil {
			return nil, nil
		}
		return eng, space
	}
	return nil, nil
}

// ---- fleet workloads -------------------------------------------------------

type fleetSpec struct {
	opt          fleet.Options
	warm, prefix int
}

// The fleets are sized for steadiness, not for scale: what each workload is
// about is the per-node load (jobs per node, churn per node-second), and a
// fleet whose state outgrows the cache measures the neighbours' memory
// traffic (2 048 sparse nodes spread 16-32 % between runs, 512 spread 3 %).
var fleetChurn = fleetSpec{
	opt: fleet.Options{
		Nodes: 96, Policy: "satori", Placer: "round-robin", Shards: 8, EventDriven: true,
		MaxJobsPerNode: 5,
		Stream:         fleet.StreamOptions{ArrivalRate: 19, DurationMean: 20, DurationMin: 10, DurationMax: 40},
	},
	warm: 250, prefix: 100,
}

var fleetSparse = fleetSpec{
	opt: fleet.Options{
		Nodes: 512, Policy: "satori", Placer: "least-loaded", Shards: 16, EventDriven: true,
		MaxJobsPerNode: 5,
		Stream:         fleet.StreamOptions{ArrivalRate: 7.5, DurationMean: 60},
	},
	warm: 600, prefix: 300,
}

func runFleet(e env, s fleetSpec) (*result, error) {
	opt := s.opt
	opt.Seed = e.seed
	opt.Workers = runtime.GOMAXPROCS(0)
	if e.tr != nil {
		opt.WrapPlatform = func(_ int, p rdt.Platform) rdt.Platform { return tracePlatform(p, e.tr) }
	}
	var c *fleet.Cluster
	res := &result{m: newMeter(1<<14, opt.Workers)}
	var err error
	res.rawSetup, res.setup, err = timeSetup(opt.Workers, func() error {
		var err error
		if c, err = fleet.New(opt); err != nil {
			return err
		}
		if _, err := c.Run(e.n(s.warm, 20)); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.traceOn()

	nodes := float64(opt.Nodes)
	prefix := e.n(s.prefix, 10)
	every := max(1, prefix/4)
	dig := newDigester()
	m0 := mallocCount()
	var st fleet.TickStats
	err = closedLoop(e, res.m, nodes, prefix,
		func() (err error) { st, err = c.Step(); return err },
		func(n int) {
			if n%every == 0 {
				dig.floats(fmt.Sprint("tick ", n), st.SumIPS, st.GeoMeanSpeedup, st.Jain, float64(st.Running), float64(st.Queued))
			}
			if n == prefix {
				sum := c.Summary()
				res.quality = [2]float64{sum.MeanGeoMean, sum.MeanJain}
				dig.text(sum.String())
				dig.floats("means", sum.MeanSumIPS, sum.MeanGeoMean, sum.MeanJain)
				res.digest = dig.sum()
				res.liveHeap = liveHeapOf(c)
			}
		})
	if err != nil {
		return nil, err
	}
	res.mallocs = mallocCount() - m0
	res.ticks = float64(len(res.m.ops)) * nodes
	res.attempted = int64(res.ticks)

	sum := c.Summary()
	if sum.Placed+sum.Queued != sum.Arrived {
		res.errs = append(res.errs, fmt.Sprintf("placed %d + queued %d != arrived %d", sum.Placed, sum.Queued, sum.Arrived))
	}
	res.counters = map[string]float64{
		"fleet.skipped_ratio": float64(sum.SkippedNodeTicks) / (float64(sum.Ticks) * nodes),
		"fleet.max_queue":     float64(sum.MaxQueue),
		"fleet.resident_jobs": float64(sum.Running),
	}
	return res, nil
}
