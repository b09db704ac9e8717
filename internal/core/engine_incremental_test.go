package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"satori/internal/policy"
	"satori/internal/resource"
)

// driveKeys runs the engine like drive but returns the full decision
// sequence (config keys), for replay comparisons.
func driveKeys(t *testing.T, eng *Engine, env *syntheticEnv, n int) []string {
	t.Helper()
	current := env.space.EqualSplit()
	keys := make([]string, 0, n)
	for tick := 1; tick <= n; tick++ {
		tp, fair := env.eval(current)
		obs := policy.Observation{
			Tick: tick, Time: float64(tick) * 0.1,
			Throughput: tp, Fairness: fair,
		}
		next := eng.Decide(obs, current)
		if err := env.space.Validate(next); err != nil {
			t.Fatalf("invalid config at tick %d: %v", tick, err)
		}
		keys = append(keys, next.Key())
		current = next
	}
	return keys
}

// TestEngineLifecycleIncremental drives one engine through every phase of
// the incremental path — seeding, exploration (rank-1 appends), exploit
// ticks (α-only target re-solves), and window eviction (full refits) —
// and checks each path actually ran. With -race this doubles as the
// ISSUE's race-detector lifecycle test.
func TestEngineLifecycleIncremental(t *testing.T) {
	env := newSyntheticEnv(0.01)
	eng, err := New(env.space, Options{Seed: 5, Window: 4, InitialSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, eng, env, 300)
	if eng.FitFailures() != 0 {
		t.Errorf("%d proxy fit failures", eng.FitFailures())
	}
	if eng.AcquisitionFailures() != 0 {
		t.Errorf("%d acquisition failures", eng.AcquisitionFailures())
	}
	if eng.Records().Len() <= 4 {
		t.Errorf("only %d distinct configs recorded; window eviction never exercised", eng.Records().Len())
	}
	st := eng.GPStats()
	if st.Refits == 0 {
		t.Error("no full refits: the first-fit/eviction path never ran")
	}
	if st.TargetSolves == 0 {
		t.Error("no α-only solves: the unchanged-membership fast path never ran")
	}
	// Note the fast-path split is data-dependent: the α-only solve
	// requires the data-scaled variance heuristic to be unchanged,
	// which holds whenever its 0.01 floor binds. On real normalized
	// simulator data the floor binds on ~90% of ticks (540/600 α-only
	// solves vs 48 refits on the overhead workload); this synthetic
	// landscape's wider objective spread unfloors it, so here we only
	// require every path to have run. Rank-1 Extends are rare on the
	// heuristic-kernel path — membership changes usually move the
	// median length-scale, forcing a refit — and are pinned directly by
	// the gp and linalg package tests.
	if eng.Exploits() == 0 {
		t.Error("engine never exploited on the synthetic landscape")
	}
}

// TestEngineConcurrentEnginesDeterministic runs identically-seeded engines
// in parallel goroutines: their decision sequences must be identical, and
// under -race this verifies the incremental path shares no hidden mutable
// state between engine instances.
func TestEngineConcurrentEnginesDeterministic(t *testing.T) {
	const workers = 4
	seqs := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			env := newSyntheticEnv(0.01)
			eng, err := New(env.space, Options{Seed: 11, Window: 8})
			if err != nil {
				t.Error(err)
				return
			}
			seqs[w] = driveKeys(t, eng, env, 200)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range seqs[0] {
			if seqs[w][i] != seqs[0][i] {
				t.Fatalf("engine %d diverged from engine 0 at tick %d: %q vs %q",
					w, i+1, seqs[w][i], seqs[0][i])
			}
		}
	}
}

// TestEngineAcquisitionFailureSurfaced is the engine half of the NaN
// acquisition bugfix: a NaN exploration margin legitimately drives every
// EI score to NaN through the public API; the engine must hold the
// current configuration AND count the failure, where it previously held
// silently.
func TestEngineAcquisitionFailureSurfaced(t *testing.T) {
	env := newSyntheticEnv(0)
	eng, err := New(env.space, Options{Seed: 13, InitialSamples: 3, Xi: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	current := env.space.EqualSplit()
	held := 0
	for tick := 1; tick <= 20; tick++ {
		tp, fair := env.eval(current)
		next := eng.Decide(policy.Observation{
			Tick: tick, Time: float64(tick) * 0.1,
			Throughput: tp, Fairness: fair,
		}, current)
		if tick > 3 && next.Equal(current) {
			held++
		}
		current = next
	}
	if eng.AcquisitionFailures() == 0 {
		t.Fatal("NaN Xi never registered as an acquisition failure")
	}
	if held != eng.AcquisitionFailures() {
		t.Errorf("held %d ticks but counted %d acquisition failures", held, eng.AcquisitionFailures())
	}
}

// TestEngineReturnedConfigIsNotAliased: Decide's explore decisions come
// from a pooled candidate buffer that is overwritten every tick; the
// returned config must be a private copy.
func TestEngineReturnedConfigIsNotAliased(t *testing.T) {
	env := newSyntheticEnv(0.05)
	eng, err := New(env.space, Options{Seed: 17, ExploitThreshold: -1}) // always explore
	if err != nil {
		t.Fatal(err)
	}
	current := env.space.EqualSplit()
	var prev resource.Config
	var prevKey string
	for tick := 1; tick <= 60; tick++ {
		tp, fair := env.eval(current)
		next := eng.Decide(policy.Observation{
			Tick: tick, Time: float64(tick) * 0.1,
			Throughput: tp, Fairness: fair,
		}, current)
		if prev.Alloc != nil && prev.Key() != prevKey {
			t.Fatalf("tick %d: previously returned config mutated from %q to %q", tick, prevKey, prev.Key())
		}
		prev, prevKey = next, next.Key()
		current = next
	}
}

// TestEngineStatsAddUp holds Stats to the ticks that produced it, tick by
// tick: a seeding tick moves SeedTicks alone, every other tick is one model
// tick, and a tick is a record-store head hit exactly when it records the
// configuration the tick before recorded; a model tick either fails or
// takes exactly one GP tier (an AppendRefits only with a refit), scores
// every top configuration's block as a hit or a miss, settles as a probe,
// an exploit or an acquisition failure, and narrows its fresh panel exactly
// when the settleTicks scored ticks before it all exploited with the fresh
// panel ruled out. Over each run, forced +
// seeding + model ticks equal the Decide calls, hits + misses the blocks
// scored, refits + extends + α-only solves the model ticks less the fit
// failures, and GPStats the model's own counters — under EI with the
// default and a never-exploit threshold, small and evicting windows, UCB,
// Thompson sampling and a NaN margin that fails every acquisition.
func TestEngineStatsAddUp(t *testing.T) {
	var total Stats
	for i, opt := range []Options{
		{Seed: 5, Window: 4, InitialSamples: 4},
		{Seed: 7, Window: 64},
		{Seed: 9, Window: 8, ExploitThreshold: -1},
		{Seed: 11, Window: 12, Acquisition: "ucb"},
		{Seed: 13, Window: 12, Acquisition: "ts"},
		{Seed: 15, InitialSamples: 3, Xi: math.NaN()},
	} {
		env := newSyntheticEnv(0.01)
		eng, err := New(env.space, opt)
		if err != nil {
			t.Fatal(err)
		}
		const ticks = 300
		blocks, scored, settled := 0, 0, 0
		var previous resource.Config
		current := env.space.EqualSplit()
		for tick := 1; tick <= ticks; tick++ {
			seeding, before := len(eng.initQueue) > 0, eng.Stats()
			tp, fair := env.eval(current)
			next := eng.Decide(policy.Observation{Tick: tick, Time: float64(tick) * 0.1, Throughput: tp, Fairness: fair}, current)
			d := addStats(eng.Stats(), before, -1)
			hit := 0
			if current.Equal(previous) {
				hit = 1
			}
			if d.RecordHeadHits != hit {
				t.Fatalf("run %d tick %d: %d head hits, want %d", i, tick, d.RecordHeadHits, hit)
			}
			d.RecordHeadHits = 0
			switch {
			case seeding && d != (Stats{SeedTicks: 1}):
				t.Fatalf("run %d tick %d: a seeding tick moved %+v", i, tick, d)
			case seeding:
			case d.ModelTicks != 1:
				t.Fatalf("run %d tick %d: a model tick counted %d", i, tick, d.ModelTicks)
			case d.FitFailures != 0:
				settled = 0
			default:
				scored++
				if narrowed := settled >= settleTicks; d.NarrowTicks != 1 && narrowed || d.NarrowTicks != 0 && !narrowed {
					t.Fatalf("run %d tick %d: %d narrowed ticks after %d settled ticks", i, tick, d.NarrowTicks, settled)
				}
				settled++
				if d.Exploits == 0 || d.FreshSkips == 0 {
					settled = 0
				}
				blocks += eng.poolTopN
				if d.Refits+d.Extends+d.TargetSolves != 1 || d.AppendRefits > d.Refits {
					t.Fatalf("run %d tick %d: GP tier %+v", i, tick, d)
				}
				if d.BlockHits+d.BlockRevivals+d.BlockMisses != eng.poolTopN || d.BlockRefills > d.BlockRevivals ||
					d.Exploits+d.AcquisitionFailures > 1 || d.FreshSkips > 1 {
					t.Fatalf("run %d tick %d: %d blocks, counters %+v", i, tick, eng.poolTopN, d)
				}
			}
			previous, current = current, next
		}
		st := eng.Stats()
		if st.ForcedTicks+st.SeedTicks+st.ModelTicks != ticks || st.ForcedTicks != 0 {
			t.Fatalf("run %d: %d forced, %d seeding and %d model ticks of %d", i, st.ForcedTicks, st.SeedTicks, st.ModelTicks, ticks)
		}
		if st.BlockHits+st.BlockRevivals+st.BlockMisses != blocks || st.Refits+st.Extends+st.TargetSolves != st.ModelTicks-st.FitFailures ||
			st.ModelTicks-st.FitFailures != scored || eng.GPStats() != eng.model.Stats() {
			t.Fatalf("run %d: %d blocks on %d scored ticks, Stats %+v, model %+v", i, blocks, scored, st, eng.model.Stats())
		}
		if eng.Exploits() != st.Exploits || eng.FitFailures() != st.FitFailures || eng.AcquisitionFailures() != st.AcquisitionFailures {
			t.Fatalf("run %d: the accessors disagree with Stats %+v", i, st)
		}
		total = addStats(total, st, 1)
	}
	if total.BlockHits == 0 || total.BlockMisses == 0 || total.BlockRevivals == 0 || total.BlockRefills == 0 || total.AppendRefits == 0 || total.Extends == 0 || total.TargetSolves == 0 ||
		total.FreshSkips == 0 || total.NarrowTicks == 0 || total.Exploits == 0 || total.AcquisitionFailures == 0 || total.SeedTicks == 0 || total.RecordHeadHits == 0 {
		t.Fatalf("totals %+v: a counter never moved", total)
	}
	t.Logf("totals %+v", total)
}

// addStats returns a + sign·b, counter by counter.
func addStats(a, b Stats, sign int) Stats {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() + int64(sign)*vb.Field(i).Int())
	}
	return a
}
