package core

import (
	"math"
	"testing"
	"unsafe"

	"satori/internal/gp"
	"satori/internal/policy"
	"satori/internal/resource"
)

// swing is an observation stream whose two goals move against each other,
// so the weight scheduler has something to react to on every tick.
func swing(tick int) policy.Observation {
	x := float64(tick)
	return policy.Observation{
		Tick: tick, Time: x * 0.1,
		Throughput: 0.6 + 0.3*math.Sin(x/7),
		Fairness:   0.6 + 0.3*math.Cos(x/11),
	}
}

// A managed space of one configuration leaves nothing to decide: every tick
// returns that configuration, and the engine builds no initial design, proxy
// model, candidate pool or RNG. Its first tick weighs and records once, for
// the engine's readers; no later tick weighs or records again.
func TestForcedSpaceSkipsTheSearch(t *testing.T) {
	cases := []struct {
		name    string
		space   *resource.Space
		managed []resource.Kind
	}{
		{"one job", resource.MustNewSpace(1,
			resource.Resource{Kind: resource.Cores, Units: 10},
			resource.Resource{Kind: resource.LLCWays, Units: 11},
			resource.Resource{Kind: resource.MemBW, Units: 10}), nil},
		{"every row on its floor", resource.MustNewSpace(3,
			resource.Resource{Kind: resource.Cores, Units: 3},
			resource.Resource{Kind: resource.LLCWays, Units: 3}), nil},
		{"managed subset on its floor", resource.MustNewSpace(3,
			resource.Resource{Kind: resource.Cores, Units: 8},
			resource.Resource{Kind: resource.LLCWays, Units: 3}),
			[]resource.Kind{resource.LLCWays}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// RandomInit draws its design in New on any other space.
			eng, err := New(c.space, Options{Seed: 9, Managed: c.managed, RandomInit: true})
			if err != nil {
				t.Fatal(err)
			}
			only := c.space.EqualSplit()
			current := only
			var firstW Weights
			var firstObj float64
			for tick := 1; tick <= 200; tick++ {
				next := eng.Decide(swing(tick), current)
				if !next.Equal(only) {
					t.Fatalf("tick %d: decided %s, the space holds only %s",
						tick, c.space.String(next), c.space.String(only))
				}
				if tick == 1 {
					firstW, firstObj = eng.LastWeights(), eng.LastObjective()
				}
				current = next
			}
			if got := eng.GPStats(); got != (gp.IncrementalStats{}) {
				t.Errorf("GPStats = %+v, want no model work", got)
			}
			if n := eng.Records().Len(); n != 1 {
				t.Fatalf("Records().Len() = %d, want the one configuration", n)
			}
			if rec := eng.Records().Window(64)[0]; rec.Visits != 1 || rec.LastTick != 1 {
				t.Errorf("record = %d visits, last tick %d; want 1 and 1, the first tick's alone", rec.Visits, rec.LastTick)
			}
			// The first tick's weights, although the goals swung on for 199
			// more.
			if w := eng.LastWeights(); w != firstW || firstW == (Weights{}) {
				t.Errorf("LastWeights = %+v, want the first tick's %+v", w, firstW)
			}
			if obj := eng.LastObjective(); obj != firstObj || firstObj <= 0 {
				t.Errorf("LastObjective = %v, want the first tick's %v", obj, firstObj)
			}
			// Only the first tick recorded, so no record was met at the
			// head of the store.
			if st := eng.Stats(); st != (Stats{ForcedTicks: 200}) {
				t.Errorf("Stats = %+v, want 200 forced ticks and every other counter 0", st)
			}
			// No search state or RNG, at construction or after 200 ticks.
			if eng.rng != nil || eng.model != nil || eng.initQueue != nil || eng.modelRecs != nil ||
				eng.enc != nil || eng.work.Alloc != nil || eng.out.Alloc != nil || eng.rowBuf != nil || eng.blocks != nil {
				t.Error("a forced engine holds an RNG, or initial-design, model, pool or block state")
			}
		})
	}
}

// TestForcedDecideAllocatesNothing: after the first tick a forced Decide
// only counts itself, so it makes no allocation.
func TestForcedDecideAllocatesNothing(t *testing.T) {
	space := resource.MustNewSpace(1,
		resource.Resource{Kind: resource.Cores, Units: 10},
		resource.Resource{Kind: resource.LLCWays, Units: 11})
	eng, err := New(space, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	only := space.EqualSplit()
	tick := 1
	eng.Decide(swing(tick), only)
	if n := testing.AllocsPerRun(100, func() {
		tick++
		eng.Decide(swing(tick), only)
	}); n != 0 {
		t.Errorf("a forced Decide allocates %v times", n)
	}
	if st := eng.Stats(); st != (Stats{ForcedTicks: tick}) {
		t.Errorf("Stats = %+v over %d ticks, want only %d forced ticks", st, tick, tick)
	}
}

// One managed row with more than one composition is a space to search,
// whatever the other rows look like.
func TestOneFreeRowIsNotForced(t *testing.T) {
	space := resource.MustNewSpace(2,
		resource.Resource{Kind: resource.Cores, Units: 2},   // one composition
		resource.Resource{Kind: resource.LLCWays, Units: 6}, // five
	)
	eng, err := New(space, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, forced := eng.forced(); forced {
		t.Fatal("a space of five configurations was judged forced")
	}
	current := space.EqualSplit()
	for tick := 1; tick <= 200; tick++ {
		next := eng.Decide(swing(tick), current)
		if err := space.Validate(next); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		current = next
	}
	if eng.Records().Len() < 2 {
		t.Errorf("explored %d configurations of 5", eng.Records().Len())
	}
	if st := eng.GPStats(); st.Refits+st.Extends+st.TargetSolves == 0 {
		t.Errorf("GPStats = %+v: the proxy model never ran", st)
	}

	// The same shape with the free row unmanaged is forced.
	pinned, err := New(space, Options{Seed: 9, Managed: []resource.Kind{resource.Cores}})
	if err != nil {
		t.Fatal(err)
	}
	if _, forced := pinned.forced(); !forced {
		t.Error("managing only the one-composition row was not judged forced")
	}
}

// TestEngineFitsItsSizeClass: every engine pays for its struct, the forced
// engines of a trough-hours fleet included, so the struct stays in the
// allocator's 768-byte size class. An object with pointers that is larger
// than 512 bytes carries an 8-byte malloc header inside its size class, so
// the struct itself may take 760 bytes.
func TestEngineFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Engine{}); size > 760 {
		t.Fatalf("core.Engine is %d bytes; with its 8-byte malloc header it is past the 768-byte size class", size)
	}
}
