package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
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
// must equal the oracle's. Some revisits re-record the head through a copy
// of its configuration — at each kind of tick, and right after the
// cap was lowered — and must get the head's own slot back.
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
				if !lowered || recs.Len() == 0 {
					continue
				}
				headOp = 3 // the head path must run the evictions
			case k < 10:
				tick += 1 + rng.Intn(3)
			case k < 16: // several configurations in one tick
			default:
				tick -= 1 + rng.Intn(6)
			}
			head := int32(-1)
			if recs.Len() > 0 {
				head = recs.order[0]
			}
			if headOp < 0 && head >= 0 && rng.Intn(4) == 0 {
				headOp = 0
				if last := recs.recs[head].lastTick; last == tick {
					headOp = 1
				} else if last > tick {
					headOp = 2
				}
			}
			var cfg resource.Config
			switch {
			case headOp >= 0:
				cfg = recs.configOf(head)
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
			if key, rec := recs.configOf(got).Key(), recs.recs[got]; key != want.Key || rec.visits != want.Visits || rec.lastTick != want.LastTick {
				t.Fatalf("%s: Update returned %s×%d, oracle %s×%d", where(), key, rec.visits, want.Key, want.Visits)
			}
			if headOp >= 0 {
				if got != head {
					t.Fatalf("%s: re-recording the head %s returned another record", where(), cfg.Key())
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

// configOf builds the configuration in slot.
func (r *Records) configOf(slot int32) resource.Config {
	c := r.space.NewConfig()
	r.configInto(c, slot)
	return c
}

// pointerRecord and pointerRecords are the store before it was flattened
// into arrays, kept as the oracle of TestRecordsMatchPointerStore: one heap
// record per configuration, a map from its key, and a doubly linked
// recency list in Window's order.
type pointerRecord struct {
	Config               resource.Config
	Key                  string
	Throughput, Fairness float64
	LastTick, Visits     int
	newer, older         *pointerRecord
}

type pointerRecords struct {
	bySig      map[string]*pointerRecord
	head, tail *pointerRecord
	cap        int
	keyBuf     []byte
	headHits   int
}

func (r *pointerRecords) Update(cfg resource.Config, throughput, fairness float64, tick int) *pointerRecord {
	rec := r.head
	if rec != nil && rec.Config.Equal(cfg) {
		r.headHits++
		r.unlink(rec)
	} else {
		r.keyBuf = cfg.AppendKey(r.keyBuf[:0])
		if rec = r.bySig[string(r.keyBuf)]; rec != nil {
			r.unlink(rec)
		} else {
			rec = &pointerRecord{Config: cfg.Clone(), Key: string(r.keyBuf)}
			r.bySig[rec.Key] = rec
		}
	}
	rec.Throughput = throughput
	rec.Fairness = fairness
	rec.LastTick = tick
	rec.Visits++
	r.insert(rec)
	for len(r.bySig) > r.cap {
		r.evictOldest()
	}
	return rec
}

func (a *pointerRecord) precedes(b *pointerRecord) bool {
	if a.LastTick != b.LastTick {
		return a.LastTick > b.LastTick
	}
	return a.Key < b.Key
}

func (r *pointerRecords) insert(rec *pointerRecord) {
	var newer *pointerRecord
	older := r.head
	for older != nil && older.precedes(rec) {
		newer, older = older, older.older
	}
	rec.newer, rec.older = newer, older
	if newer == nil {
		r.head = rec
	} else {
		newer.older = rec
	}
	if older == nil {
		r.tail = rec
	} else {
		older.newer = rec
	}
}

func (r *pointerRecords) unlink(rec *pointerRecord) {
	if rec.newer == nil {
		r.head = rec.older
	} else {
		rec.newer.older = rec.older
	}
	if rec.older == nil {
		r.tail = rec.newer
	} else {
		rec.older.newer = rec.newer
	}
	rec.newer, rec.older = nil, nil
}

func (r *pointerRecords) evictOldest() {
	victim := r.tail
	for victim.newer != nil && victim.newer.LastTick == victim.LastTick {
		victim = victim.newer
	}
	r.unlink(victim)
	delete(r.bySig, victim.Key)
}

// TestRecordsMatchPointerStore drives the flat store and the pointer store
// it replaced with the same random Update sequences — ticks that rise,
// repeat and step back, revisits of live and of evicted configurations,
// re-records of the head, eviction at caps of 4 and 8 with every evicted
// slot reused — and after every Update requires the same window order, Len
// and HeadHits, every record's fields equal (the goals by Float64bits), the
// key index to find every live configuration in its slot and no evicted
// one, and every ref taken so far to name a live record exactly while the
// pointer store still holds that record: a slot reused after an eviction
// is never taken for its old record.
func TestRecordsMatchPointerStore(t *testing.T) {
	space := resource.MustNewSpace(3,
		resource.Resource{Kind: resource.Cores, Units: 12},
		resource.Resource{Kind: resource.LLCWays, Units: 9},
	)
	const seeds, ops = 100, 300
	var ties, stepped, heads, evictions, reused, staleRefs int
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := stats.NewRNG(seed)
		capacity := []int{4, 8}[seed%2]
		recs := NewRecords()
		recs.cap = capacity
		oracle := &pointerRecords{bySig: map[string]*pointerRecord{}, cap: capacity}
		type taken struct {
			r   ref
			rec *pointerRecord
		}
		var refs []taken
		var seen []resource.Config
		everUsed := map[int32]bool{}
		tick := 1
		for op := 0; op < ops; op++ {
			where := func() string { return fmt.Sprintf("seed %d op %d (tick %d, cap %d)", seed, op, tick, capacity) }
			switch k := rng.Intn(10); {
			case k < 5:
				tick += 1 + rng.Intn(2)
			case k < 8:
				ties++
			default:
				tick -= 1 + rng.Intn(3)
				stepped++
			}
			var cfg resource.Config
			switch k := rng.Intn(6); {
			case k == 0 && recs.Len() > 0:
				cfg = recs.configOf(recs.order[0])
				heads++
			case k < 3 || len(seen) == 0:
				cfg = space.Random(rng)
				seen = append(seen, cfg)
			default:
				cfg = seen[rng.Intn(len(seen))]
			}
			before := oracle.Len()
			tp, fair := rng.Float64(), rng.Float64()
			slot := recs.Update(space, cfg, tp, fair, tick)
			want := oracle.Update(cfg, tp, fair, tick)
			if want.Visits == 1 {
				before++ // a new record
				if everUsed[slot] {
					reused++
				}
				everUsed[slot] = true
			}
			evictions += before - oracle.Len()
			refs = append(refs, taken{recs.ref(slot), want})
			if d := samePointerStore(recs, oracle); d != "" {
				t.Fatalf("%s: %s", where(), d)
			}
			for _, c := range seen {
				got, held := recs.lookup(c), oracle.bySig[c.Key()] != nil
				if (got >= 0) != held || got >= 0 && !recs.configOf(got).Equal(c) {
					t.Fatalf("%s: key index finds %s at slot %d, pointer store holds it: %v", where(), c.Key(), got, held)
				}
			}
			for _, tk := range refs {
				live := slices.Contains(recs.order, tk.r.slot) && recs.recs[tk.r.slot].stamp == tk.r.stamp
				if want := oracle.bySig[tk.rec.Key] == tk.rec; live != want {
					t.Fatalf("%s: ref %+v to %s names a live record: %v, pointer store: %v", where(), tk.r, tk.rec.Key, live, want)
				}
				if !live {
					staleRefs++
				}
			}
		}
	}
	if ties == 0 || stepped == 0 || heads == 0 || evictions == 0 || reused == 0 || staleRefs == 0 {
		t.Fatalf("equal ticks %d, stepped-back ticks %d, head re-records %d, evictions %d, reused slots %d, stale refs %d: a path never ran",
			ties, stepped, heads, evictions, reused, staleRefs)
	}
	t.Logf("%d seeds × %d updates: %d at an equal tick, %d stepped back, %d head re-records, %d evictions, %d slots reused, %d stale ref checks",
		seeds, ops, ties, stepped, heads, evictions, reused, staleRefs)
}

// Len is the oracle's record count.
func (r *pointerRecords) Len() int { return len(r.bySig) }

// samePointerStore reports how the flat store differs from the pointer
// store, or "" when they hold the same records in the same order.
func samePointerStore(recs *Records, oracle *pointerRecords) string {
	if recs.Len() != oracle.Len() || recs.HeadHits() != oracle.headHits {
		return fmt.Sprintf("Len %d, HeadHits %d; pointer store %d, %d", recs.Len(), recs.HeadHits(), oracle.Len(), oracle.headHits)
	}
	want := oracle.head
	for i, slot := range recs.order {
		got := recs.recs[slot]
		if key := recs.configOf(slot).Key(); key != want.Key || got.lastTick != want.LastTick || got.visits != want.Visits ||
			math.Float64bits(got.throughput) != math.Float64bits(want.Throughput) || math.Float64bits(got.fairness) != math.Float64bits(want.Fairness) {
			return fmt.Sprintf("position %d: %s@%d×%d (%v, %v), pointer store %s@%d×%d (%v, %v)",
				i, key, got.lastTick, got.visits, got.throughput, got.fairness, want.Key, want.LastTick, want.Visits, want.Throughput, want.Fairness)
		}
		want = want.older
	}
	return ""
}

// TestRecordsUpdateAmortisesItsAllocations: recording 1 000 distinct
// configurations makes fewer than 0.05 allocations per Update, at the
// default capacity and at a capacity of 64, where every new record past the
// 64th evicts one and takes its slot.
func TestRecordsUpdateAmortisesItsAllocations(t *testing.T) {
	space := resource.MustNewSpace(4,
		resource.Resource{Kind: resource.Cores, Units: 16},
		resource.Resource{Kind: resource.LLCWays, Units: 20},
		resource.Resource{Kind: resource.MemBW, Units: 10},
	)
	rng := stats.NewRNG(3)
	var cfgs []resource.Config
	keys := map[string]bool{}
	for len(cfgs) < 1000 {
		if c := space.Random(rng); !keys[c.Key()] {
			keys[c.Key()] = true
			cfgs = append(cfgs, c)
		}
	}
	for _, capacity := range []int{DefaultRecordCap, 64} {
		recs := NewRecords()
		recs.cap = capacity
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, c := range cfgs {
			recs.Update(space, c, 0.5, 0.5, i+1)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / float64(len(cfgs))
		if per >= 0.05 {
			t.Errorf("cap %d: %.3f allocations per Update of a new configuration", capacity, per)
		}
		t.Logf("cap %d: %.3f allocations per Update", capacity, per)
		if recs.Len() != min(capacity, len(cfgs)) {
			t.Errorf("cap %d: %d records", capacity, recs.Len())
		}
	}
}
