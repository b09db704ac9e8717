package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"satori/internal/resource"
	"satori/internal/stats"
)

// sortedRecords is the store before its recency list, kept verbatim as the
// oracle: a map scanned for the oldest record on every eviction and sorted
// by (LastTick descending, Key) for every window.
type sortedRecords struct {
	bySig map[string]*Record
	cap   int
}

func (r *sortedRecords) SetCap(n int) {
	if n < 1 {
		n = 1
	}
	r.cap = n
}

// Update also returns the keys it evicted, in eviction order.
func (r *sortedRecords) Update(space *resource.Space, cfg resource.Config, throughput, fairness float64, tick int) (*Record, []string) {
	key := cfg.Key()
	rec, ok := r.bySig[key]
	if !ok {
		rec = &Record{Config: cfg.Clone(), Key: key, Vector: space.Vector(cfg)}
		r.bySig[key] = rec
	}
	rec.Throughput = throughput
	rec.Fairness = fairness
	rec.LastTick = tick
	rec.Visits++
	var evicted []string
	for len(r.bySig) > r.cap {
		evicted = append(evicted, r.evictOldest())
	}
	return rec, evicted
}

func (r *sortedRecords) evictOldest() string {
	oldestKey := ""
	oldestTick := int(^uint(0) >> 1)
	for key, rec := range r.bySig {
		if rec.LastTick < oldestTick || (rec.LastTick == oldestTick && key < oldestKey) {
			oldestKey = key
			oldestTick = rec.LastTick
		}
	}
	if oldestKey != "" {
		delete(r.bySig, oldestKey)
	}
	return oldestKey
}

func (r *sortedRecords) Window(n int) []*Record {
	var all []*Record
	for _, rec := range r.bySig {
		all = append(all, rec)
	}
	slices.SortFunc(all, func(a, b *Record) int {
		if a.LastTick != b.LastTick {
			return cmp.Compare(b.LastTick, a.LastTick)
		}
		return cmp.Compare(a.Key, b.Key)
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// sameWindow reports how two windows differ, or "" when they hold the same
// records in the same order.
func sameWindow(got, want []*Record) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.LastTick != w.LastTick || g.Visits != w.Visits || g.Throughput != w.Throughput || g.Fairness != w.Fairness {
			return fmt.Sprintf("position %d: %s@%d×%d, oracle %s@%d×%d", i, g.Key, g.LastTick, g.Visits, w.Key, w.LastTick, w.Visits)
		}
	}
	return ""
}

// TestRecordsMatchSortedOracle holds the recency list to the sort it
// replaced under random operation sequences: new configurations and
// revisits (of live and of evicted ones), ticks that advance, repeat or
// step back, and capacity changes in both directions down to a cap of 1.
// After every operation Window(0), Window(n), Len and the evicted keys
// must equal the oracle's. Some revisits re-record the head through a clone
// of its configuration — at each kind of tick, and right after the
// cap was lowered — and must get the head's own *Record back: engine
// blocks are keyed by the pointer.
func TestRecordsMatchSortedOracle(t *testing.T) {
	space := resource.MustNewSpace(3,
		resource.Resource{Kind: resource.Cores, Units: 10},
		resource.Resource{Kind: resource.LLCWays, Units: 8},
	)
	const seeds, ops = 200, 400
	evictions, capEvictions := 0, 0
	var headOps [4]int // advancing, equal and stepped-back ticks; after a lowered cap
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := stats.NewRNG(seed)
		recs, oracle := NewRecords(), &sortedRecords{bySig: map[string]*Record{}, cap: DefaultRecordCap}
		if seed%2 == 0 {
			c := 1 + rng.Intn(24)
			oracle.SetCap(c)
			recs.cap = oracle.cap
		}
		var seen []resource.Config
		tick := rng.Intn(5)
		for op := 0; op < ops; op++ {
			where := func() string { return fmt.Sprintf("seed %d op %d (tick %d, cap %d)", seed, op, tick, oracle.cap) }
			headOp := -1
			switch k := rng.Intn(20); {
			case k == 0:
				c := rng.Intn(32) - 2 // includes the clamp to 1
				lowered := max(c, 1) < oracle.cap
				oracle.SetCap(c)
				recs.cap = oracle.cap
				// A lower cap evicts nothing until the next Update.
				if d := sameWindow(recs.Window(0), oracle.Window(0)); d != "" || recs.Len() != len(oracle.bySig) {
					t.Fatalf("%s: cap set from %d: %s, Len %d", where(), c, d, recs.Len())
				}
				if !lowered || recs.head == nil {
					continue
				}
				headOp = 3 // the head path must run the evictions
			case k < 10:
				tick += 1 + rng.Intn(3)
			case k < 16: // several configurations in one tick
			default:
				tick -= 1 + rng.Intn(6)
			}
			head := recs.head
			if headOp < 0 && head != nil && rng.Intn(4) == 0 {
				headOp = 0
				if head.LastTick == tick {
					headOp = 1
				} else if head.LastTick > tick {
					headOp = 2
				}
			}
			var cfg resource.Config
			switch {
			case headOp >= 0:
				cfg = head.Config.Clone()
			case len(seen) == 0 || rng.Intn(3) == 0:
				cfg = space.Random(rng)
				seen = append(seen, cfg)
			default:
				cfg = seen[rng.Intn(len(seen))]
			}
			tp, fair := rng.Float64(), rng.Float64()
			before := map[string]bool{cfg.Key(): true}
			for _, rec := range recs.Window(0) {
				before[rec.Key] = true
			}
			got := recs.Update(space, cfg, tp, fair, tick)
			want, wantEvicted := oracle.Update(space, cfg, tp, fair, tick)
			if got.Key != want.Key || got.Visits != want.Visits || got.LastTick != want.LastTick {
				t.Fatalf("%s: Update returned %s×%d, oracle %s×%d", where(), got.Key, got.Visits, want.Key, want.Visits)
			}
			if headOp >= 0 {
				if got != head {
					t.Fatalf("%s: re-recording the head %s returned another record", where(), head.Key)
				}
				headOps[headOp]++
				if headOp == 3 {
					capEvictions += len(wantEvicted)
				}
			}
			all := recs.Window(0)
			if d := sameWindow(all, oracle.Window(0)); d != "" {
				t.Fatalf("%s: Window(0): %s", where(), d)
			}
			if recs.Len() != len(oracle.bySig) {
				t.Fatalf("%s: Len %d, oracle %d", where(), recs.Len(), len(oracle.bySig))
			}
			n := 1 + rng.Intn(12)
			if d := sameWindow(recs.Window(n), oracle.Window(n)); d != "" {
				t.Fatalf("%s: Window(%d): %s", where(), n, d)
			}
			for _, rec := range all {
				delete(before, rec.Key)
			}
			slices.Sort(wantEvicted)
			gotEvicted := make([]string, 0, len(before))
			for key := range before {
				gotEvicted = append(gotEvicted, key)
			}
			slices.Sort(gotEvicted)
			if !slices.Equal(gotEvicted, wantEvicted) {
				t.Fatalf("%s: evicted %q, oracle %q", where(), gotEvicted, wantEvicted)
			}
			evictions += len(wantEvicted)
		}
	}
	if evictions == 0 || capEvictions == 0 {
		t.Fatalf("%d evictions, %d after a lowered cap: the eviction order was never compared", evictions, capEvictions)
	}
	for i, n := range headOps {
		if n == 0 {
			t.Fatalf("head re-records %v: kind %d never ran", headOps, i)
		}
	}
	t.Logf("%d seeds × %d operations, %d evictions compared (%d by a head re-record after a lowered cap); head re-records at an advancing, equal and stepped-back tick and after a lowered cap: %v",
		seeds, ops, evictions, capEvictions, headOps)
}

// windowKeys lists a window as key@tick, for failure messages.
func windowKeys(w []*Record) []string {
	out := make([]string, len(w))
	for i, rec := range w {
		out[i] = fmt.Sprintf("%s@%d", rec.Key, rec.LastTick)
	}
	return out
}
