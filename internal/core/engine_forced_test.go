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
// returns that configuration, and the engine neither builds nor touches an
// initial design, a proxy model, a candidate pool or its RNG — while the
// weight scheduler and the one record stay live for their readers.
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
			rngAtBirth := *eng.rng
			only := c.space.EqualSplit()
			current := only
			weights := map[Weights]bool{}
			for tick := 1; tick <= 200; tick++ {
				next := eng.Decide(swing(tick), current)
				if !next.Equal(only) {
					t.Fatalf("tick %d: decided %s, the space holds only %s",
						tick, c.space.String(next), c.space.String(only))
				}
				weights[eng.LastWeights()] = true
				current = next
			}
			if got := eng.GPStats(); got != (gp.IncrementalStats{}) {
				t.Errorf("GPStats = %+v, want no model work", got)
			}
			if n := eng.Records().Len(); n != 1 {
				t.Errorf("Records().Len() = %d, want the one configuration", n)
			}
			if rec := eng.Records().Window(64)[0]; rec.Visits != 200 || rec.LastTick != 200 {
				t.Errorf("record = %d visits, last tick %d; want 200 and 200", rec.Visits, rec.LastTick)
			}
			if *eng.rng != rngAtBirth {
				t.Error("a forced engine drew from its RNG")
			}
			// The first tick records the configuration; the other 199 find
			// it at the head of the record store.
			if st := eng.Stats(); st != (Stats{ForcedTicks: 200, RecordHeadHits: 199}) {
				t.Errorf("Stats = %+v, want 200 forced ticks, 199 head hits and every other counter 0", st)
			}
			if len(weights) < 10 {
				t.Errorf("LastWeights took %d distinct values over 200 swinging ticks; the scheduler is not live", len(weights))
			}
			if eng.LastObjective() <= 0 {
				t.Error("LastObjective not recorded")
			}
			// No search state, at construction or after 200 ticks.
			if eng.model != nil || eng.initQueue != nil || eng.modelRecs != nil ||
				eng.enc != nil || eng.work.Alloc != nil || eng.out.Alloc != nil || eng.rowBuf != nil || eng.blocks != nil {
				t.Error("a forced engine holds initial-design, model, pool or block state")
			}
		})
	}
}

// TestForcedDecideAllocatesNothing: a forced engine re-records the one
// configuration every tick, which the record store finds at its head, so
// a warm forced Decide makes no allocation — not even the key string.
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
	if st := eng.Stats(); st.RecordHeadHits != tick-1 {
		t.Errorf("%d head hits over %d ticks, want %d", st.RecordHeadHits, tick, tick-1)
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
