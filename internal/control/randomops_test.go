package control

import (
	"fmt"
	"testing"
	"time"

	"satori/internal/cluster"
	"satori/internal/core"
	"satori/internal/gp"
	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/slo"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// wanderPolicy mostly holds the partition (so the stability window arms
// and idle promises open), sometimes moves one unit between two jobs,
// and occasionally emits a malformed decision the platform must reject.
type wanderPolicy struct {
	space   *resource.Space
	rng     *stats.RNG
	decides *int // shared per seed: every Decide of every rebuilt policy
}

func (*wanderPolicy) Name() string { return "wander" }

func (p *wanderPolicy) Decide(_ policy.Observation, current resource.Config) resource.Config {
	*p.decides++
	switch u := p.rng.Float64(); {
	case u < 0.03:
		return resource.Config{}
	case u < 0.25 && p.space.Jobs > 1:
		r, from := p.rng.Intn(len(current.Alloc)), p.rng.Intn(p.space.Jobs)
		to := (from + 1 + p.rng.Intn(p.space.Jobs-1)) % p.space.Jobs
		if next, ok := p.space.Move(current, r, from, to); ok {
			return next
		}
	}
	return current
}

// countedEngine is the SATORI engine counting its Decide calls into the
// seed's shared counter, as wanderPolicy does.
type countedEngine struct {
	*core.Engine
	decides *int
}

func (e countedEngine) Decide(obs policy.Observation, current resource.Config) resource.Config {
	*e.decides++
	return e.Engine.Decide(obs, current)
}

// ledger is the model side of the test: Summary's counters and the
// breaker's state re-derived from nothing but the Status values the loop
// returned. BreakerTrips is modelled as closed→open transitions of the
// consecutive-failure automaton, not as a count of SafeFallback: an
// injected apply fault can reject the fallback installation itself, and a
// clean tick may then close the breaker before it is ever installed.
type ledger struct {
	ticks, bad, sampleErrs, rejected, resetErrs, sampled, regroups, trips int

	consec int
	open   bool
}

const modelBreakerThreshold = 3

func (m *ledger) fold(t *testing.T, st Status) {
	count := func(n *int, hit bool) {
		if hit {
			*n++
		}
	}
	m.ticks++
	count(&m.bad, st.Held == HeldSampleCorrupt)
	count(&m.sampleErrs, st.Held == HeldSampleLost)
	count(&m.rejected, st.Held == HeldApplyRejected)
	count(&m.resetErrs, st.ResetErr != nil)
	count(&m.regroups, st.Regrouped)
	if st.Held == 0 {
		m.landed()
	} else if m.consec++; m.consec >= modelBreakerThreshold && !m.open {
		m.open = true
		m.trips++
	}
	if st.SafeFallback && !m.open {
		t.Errorf("tick %d: SafeFallback with the breaker closed", st.Tick)
	}
}

// landed accounts ticks that landed a decision or an idle skip: the
// failure run ends and the breaker closes.
func (m *ledger) landed() { m.consec, m.open = 0, false }

// Seeded random operation sequences over a fault-injected simulator: no
// operation may panic or abort, the loop must keep describing the job set
// the platform runs (baselines, partition), and Summary must equal the
// fold over the returned Status stream. Every Step also states what a
// Status means: Held is zero exactly when the decision landed (the loop's
// own last-good-apply clock agrees), the policy was consulted exactly on
// landed and apply-rejected ticks, Err accompanies exactly the two
// reasons that have one, and the SLO block is there exactly when a scored
// observation met a job set with a latency-critical job in it. Idle
// operations stay inside an IdleHorizon promise, where every tick is a
// clean extrapolated one by contract, so the model predicts their n ticks
// without seeing them. The
// last clusteredSeeds seeds run the same policy behind a K=2 cluster
// partitioner, so regrouping, churn and faults meet: the simulator under
// the injector must always run exactly the grouping the policy searches.
// The first engineSeeds seeds run the SATORI engine itself. Halfway through,
// every seed drains to one job — the fleet's trough — and churns on from
// there, so the ledger is held across 1 <-> 2 job churn too: the one-job
// engine has nothing to decide and runs no model, and the engine churn
// builds on the two-job space starts from nothing.
func TestRandomOpsLedgerAndInvariants(t *testing.T) {
	const seeds, engineSeeds, clusteredSeeds, ops = 32, 6, 6, 400
	var total opsTally
	ran := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		kind := runWander
		switch {
		case seed <= engineSeeds:
			kind = runEngine
		case seed > seeds-clusteredSeeds:
			kind = runClustered
		}
		oneJobOps := total.oneJobOps
		if !runRandomOps(t, seed, ops, kind, &total) {
			continue
		}
		ran++
		if total.oneJobOps == oneJobOps {
			t.Errorf("seed %d never ran a single job", seed)
		}
	}
	if ran < 24 || total.idleOps == 0 || total.regroups == 0 || total.lcTicks == 0 ||
		total.grewFromOne == 0 || total.shrankToOne == 0 || total.forcedTicks == 0 || total.searchedTicks == 0 {
		t.Errorf("vacuous run: %d seeds booted, %+v", ran, total)
	}
	for why, n := range total.held {
		if n == 0 {
			t.Errorf("no tick of any seed was held for %q (0 = landed): %+v", HeldReason(why), total.held)
		}
	}
	t.Logf("%d seeds x %d ops: %+v", ran, ops, total)
}

// policyKind is the policy a random-ops seed runs.
type policyKind int

const (
	runWander    policyKind = iota
	runClustered            // wanderPolicy behind a K=2 cluster partitioner
	runEngine               // the SATORI engine
)

// opsTally counts what the random-ops runs actually exercised, summed over
// seeds.
type opsTally struct {
	idleOps, regroups int
	// held counts Steps by Status.Held (index 0: a decision landed);
	// lcTicks counts Steps that carried an SLO block.
	held    [HeldApplyRejected + 1]int
	lcTicks int
	// oneJobOps counts ops that ended on a single job; grewFromOne and
	// shrankToOne count the churn across the 1 <-> 2 job boundary.
	oneJobOps, grewFromOne, shrankToOne int
	// Engine seeds only: Steps decided by a one-job engine (forced), and by
	// an engine whose proxy model had run.
	forcedTicks, searchedTicks int
}

// runRandomOps drives one seed and adds what it exercised to tally; booted is
// false when the injected faults failed the construction-time baseline
// measurement and no loop exists.
func runRandomOps(t *testing.T, seed uint64, ops int, kind policyKind, tally *opsTally) (booted bool) {
	clustered := kind == runClustered
	pool := append(workloads.PARSEC(), workloads.LC()...)
	simulator, err := sim.New(sim.DefaultMachine(), pool[:3], sim.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := rdt.NewFaultInjector(inner, rdt.FaultScript{
		Seed:           seed,
		ApplyErrorRate: 0.05, SampleErrorRate: 0.05, SampleCorruptRate: 0.05,
		MeasureErrorRate: 0.3,
		Sleep:            func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed ^ 0x5A7031)
	decides := 0
	loop, err := New(Options{
		Platform: platform,
		Policy: func(p rdt.Platform) (policy.Policy, error) {
			wander := func(space *resource.Space) (policy.Policy, error) {
				return &wanderPolicy{space: space, rng: stats.NewRNG(rng.Uint64()), decides: &decides}, nil
			}
			switch kind {
			case runWander:
				return wander(p.Space())
			case runEngine:
				eng, err := core.New(p.Space(), core.Options{Seed: seed})
				return countedEngine{eng, &decides}, err
			}
			g, _ := rdt.As[rdt.Grouper](p)
			// Churn rebuilds the policy every few ops, so the classifier
			// must be quick to get a migration in between.
			return cluster.New(p.Space(), cluster.Options{K: 2, Inner: wander, Grouper: g,
				Classifier: cluster.ClassifierOptions{ReclassifyEvery: 3, MinSamples: 3, Hysteresis: 1}})
		},
		BaselineResetTicks: 25,
		Resilience:         ResilienceOptions{MaxRetries: 1, BreakerThreshold: modelBreakerThreshold},
	})
	if err != nil {
		if !rdt.IsTransient(err) {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		return false
	}

	var model ledger
	op, name := 0, "new"
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("seed %d op %d (%s) panicked: %v", seed, op, name, r)
		}
	}()
	transientOnly := func(err error) {
		if err != nil && !rdt.IsTransient(err) {
			t.Fatalf("seed %d op %d (%s): %v", seed, op, name, err)
		}
	}
	step := func() {
		name = "Step"
		asked := decides
		st, err := loop.Step()
		if err != nil {
			t.Fatalf("seed %d op %d: Step aborted: %v", seed, op, err)
		}
		model.fold(t, st)
		tally.held[st.Held]++
		scored := st.Held == 0 || st.Held == HeldApplyRejected
		if landed := loop.Health().TicksSinceGoodApply == 0; landed != (st.Held == 0) {
			t.Fatalf("seed %d op %d: held %q on a tick whose decision landed = %v", seed, op, st.Held, landed)
		}
		if consulted := decides == asked+1; consulted != scored || decides > asked+1 {
			t.Fatalf("seed %d op %d: held %q, policy consulted %d times", seed, op, st.Held, decides-asked)
		}
		if hasErr := st.Held == HeldSampleLost || st.Held == HeldApplyRejected; (st.Err != nil) != hasErr {
			t.Fatalf("seed %d op %d: held %q with Err %v", seed, op, st.Held, st.Err)
		}
		lc, _ := rdt.As[rdt.SLOProvider](platform)
		if want := scored && slo.HasLC(lc.SLOSpecs()); (st.SLO != nil) != want {
			t.Fatalf("seed %d op %d: held %q, SLO block present = %v, want %v", seed, op, st.Held, st.SLO != nil, want)
		}
		if st.SLO != nil {
			tally.lcTicks++
		}
	}
	lastEngine := loop.Policy()
	for op = 1; op <= ops; op++ {
		jobsBefore := loop.NumJobs()
		switch u := rng.Float64(); {
		case op == ops/2:
			name = "drain to one job"
			for loop.NumJobs() > 1 {
				transientOnly(loop.RemoveJob(rng.Intn(loop.NumJobs())))
			}
		case u < 0.55:
			step()
		case u < 0.70:
			h := loop.IdleHorizon()
			if h == 0 {
				step()
				break
			}
			tally.idleOps++
			n := 1 + rng.Intn(h)
			name = fmt.Sprintf("SkipIdle(%d of %d)", n, h)
			if err := loop.SkipIdle(n); err != nil {
				t.Fatalf("seed %d op %d (%s): %v", seed, op, name, err)
			}
			model.ticks += n
			model.sampled += n
			model.landed()
		case u < 0.78:
			if loop.NumJobs() < 5 {
				name = "AddJob"
				before := loop.NumJobs()
				transientOnly(loop.AddJob(pool[rng.Intn(len(pool))]))
				if loop.NumJobs() != before+1 {
					t.Fatalf("seed %d op %d: AddJob left %d jobs, want %d", seed, op, loop.NumJobs(), before+1)
				}
			}
		case u < 0.86:
			if loop.NumJobs() > 1 {
				name = "RemoveJob"
				transientOnly(loop.RemoveJob(rng.Intn(loop.NumJobs())))
			}
		case u < 0.92:
			name = "ReplaceJob"
			transientOnly(loop.ReplaceJob(rng.Intn(loop.NumJobs()), pool[rng.Intn(len(pool))]))
		default:
			name = "SetObjectives"
			loop.SetObjectives(
				[]metrics.ThroughputMetric{metrics.SumIPS, metrics.GeoMeanSpeedup, metrics.HarmonicMeanSpeedup}[rng.Intn(3)],
				[]metrics.FairnessMetric{metrics.JainIndex, metrics.OneMinusCoV}[rng.Intn(2)])
		}

		if len(loop.Isolated()) != loop.NumJobs() {
			t.Fatalf("seed %d op %d (%s): %d baselines for %d jobs", seed, op, name, len(loop.Isolated()), loop.NumJobs())
		}
		if err := platform.Space().Validate(loop.current); err != nil {
			t.Fatalf("seed %d op %d (%s): loop configuration invalid on the live space: %v", seed, op, name, err)
		}
		if !loop.current.Equal(platform.Current()) {
			t.Fatalf("seed %d op %d (%s): loop configuration diverged from the platform's", seed, op, name)
		}
		switch jobs := loop.NumJobs(); {
		case jobs > 1 && jobsBefore == 1:
			tally.grewFromOne++
		case jobs == 1 && jobsBefore > 1:
			tally.shrankToOne++
		}
		if loop.NumJobs() == 1 {
			tally.oneJobOps++
		}
		if kind == runEngine {
			eng := loop.Policy().(countedEngine)
			modelRan := eng.GPStats() != gp.IncrementalStats{}
			if eng != lastEngine && (eng.Records().Len() != 0 || modelRan) {
				t.Fatalf("seed %d op %d (%s): the rebuilt engine starts with %d records, model stats %+v",
					seed, op, name, eng.Records().Len(), eng.GPStats())
			}
			lastEngine = eng
			if loop.NumJobs() == 1 && (eng.Records().Len() > 1 || modelRan) {
				t.Fatalf("seed %d op %d (%s): a one-job engine holds %d records, model stats %+v",
					seed, op, name, eng.Records().Len(), eng.GPStats())
			}
			if name == "Step" {
				if loop.NumJobs() == 1 {
					tally.forcedTicks++
				} else if modelRan {
					tally.searchedTicks++
				}
			}
		}
		if clustered {
			g := loop.Policy().(*cluster.Partitioner).Grouping()
			if inner.Grouping() != g || g.Jobs() != loop.NumJobs() || len(inner.Plan().Jobs) != g.Clusters {
				t.Fatalf("seed %d op %d (%s): platform grouping %+v with %d control groups, policy searches %+v over %d jobs",
					seed, op, name, inner.Grouping(), len(inner.Plan().Jobs), g, loop.NumJobs())
			}
		}
		s := loop.Summary()
		h := loop.Health()
		got := ledger{s.Ticks, s.BadSamples, s.SampleErrors, s.RejectedApplies, s.ResetErrs, s.SampledTicks, s.Regroups, s.BreakerTrips,
			h.ConsecutiveFailures, h.BreakerOpen}
		if got != model {
			t.Fatalf("seed %d op %d (%s): Summary ledger %+v != fold over statuses %+v", seed, op, name, got, model)
		}
	}
	tally.regroups += model.regroups
	return true
}
