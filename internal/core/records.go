package core

import (
	"strconv"

	"satori/internal/resource"
)

// Record is the per-configuration entry of SATORI's separate goal-wise
// performance store (Sec. III-B): the latest observed throughput and
// fairness of a configuration, kept independently so the scalar objective
// can be reconstructed in software whenever the goal weights change,
// without re-sampling any configuration. The store keeps no Records:
// Window builds them from its arrays for readers outside the engine.
type Record struct {
	Config resource.Config
	Key    string    // Config.Key()
	Vector []float64 // the GP input encoding of Config
	// Throughput and Fairness are the most recent normalized observations
	// of each goal under Config, at LastTick; Visits counts the runs.
	Throughput, Fairness float64
	LastTick, Visits     int
}

// Objective reconstructs the scalar objective of Eq. 2 for a record under
// the given weights — the software proxy-model reconstruction that
// replaces re-sampling when the objective function changes.
func (rec *Record) Objective(w Weights) float64 {
	return w.T*rec.Throughput + w.F*rec.Fairness
}

// record is a slot of the store, all numbers. row is the record's row in
// the owning engine's proxy model, valid only while modelRecs[row] is this
// slot (−1 from birth on); pred is its latest posterior mean, the previous
// prediction for proxy-change sweep predFor only (sweeps count from 1).
// hash is the units' key-index hash; stamp counts the records the slot has
// held, so a ref to an evicted record never names the one born after it.
type record struct {
	throughput, fairness, pred float64
	lastTick, visits, predFor  int
	row                        int32
	hash, stamp                uint32
}

// ref names a record across ticks by its slot and birth stamp; the zero ref
// names none (a stamp is at least 1).
type ref struct {
	slot  int32
	stamp uint32
}

// Records stores one record per distinct configuration in arrays indexed by
// slot that hold no pointers. Beyond its capacity it evicts the least
// recently evaluated configurations, and the next new record takes the
// slot; the proxy-model window only reads the most recent entries, so
// eviction does not change engine behavior. A configuration is stored once,
// as its units (Dim narrow integers, row after row); order lists the live
// slots in Window's order — LastTick descending, then Key ascending — so a
// window is a prefix of it; index is an open-addressed table of slot+1 (0
// empty), probed linearly from the units' hash, every hit confirmed by
// comparing units.
type Records struct {
	space *resource.Space
	recs  []record
	units []uint16
	order []int32
	index []int32
	free  []int32 // evicted slots, reused first
	cap   int
	// headHits counts the updates that found their record at the head of
	// order, without a probe.
	headHits int
}

// DefaultRecordCap bounds the store; it is comfortably larger than any
// sensible proxy-model window.
const DefaultRecordCap = 1024

// NewRecords returns an empty store with the default capacity.
func NewRecords() *Records { return &Records{cap: DefaultRecordCap} }

// Update folds a fresh (throughput, fairness) observation for cfg, a
// configuration of space (the same on every call), and returns its slot.
// The latest observation replaces the previous one: under phase changes the
// newest measurement is the relevant belief, and the paper explicitly keeps
// previously sampled configurations eligible for re-evaluation.
func (r *Records) Update(space *resource.Space, cfg resource.Config, throughput, fairness float64, tick int) int32 {
	r.space = space
	at, slot := 0, int32(-1)
	if len(r.order) > 0 && r.equal(r.order[0], cfg) {
		r.headHits++ // a steady tick records the configuration recorded last
		slot = r.order[0]
	} else if slot = r.lookup(cfg); slot >= 0 {
		for r.order[at] != slot {
			at++
		}
	} else {
		slot, at = r.add(cfg), len(r.order)
		r.order = append(r.order, slot)
	}
	rec := &r.recs[slot]
	rec.throughput, rec.fairness, rec.lastTick = throughput, fairness, tick
	rec.visits++
	r.place(at)
	for len(r.order) > r.cap {
		r.evictOldest()
	}
	return slot
}

// unitsOf returns slot's units, row after row as Config.Alloc holds them.
func (r *Records) unitsOf(slot int32) []uint16 {
	dim := r.space.Dim()
	return r.units[int(slot)*dim : int(slot+1)*dim : int(slot+1)*dim]
}

// equal reports whether slot holds cfg.
func (r *Records) equal(slot int32, cfg resource.Config) bool {
	u := r.unitsOf(slot)
	for _, row := range cfg.Alloc {
		for j, v := range row {
			if uint16(v) != u[j] {
				return false
			}
		}
		u = u[len(row):]
	}
	return true
}

// hash is FNV-1a over cfg's units as the store keeps them.
func hash(cfg resource.Config) uint32 {
	h := uint32(2166136261)
	for _, row := range cfg.Alloc {
		for _, v := range row {
			h = (h ^ uint32(uint16(v))) * 16777619
		}
	}
	return h
}

// lookup returns cfg's slot, or −1.
func (r *Records) lookup(cfg resource.Config) int32 {
	h, mask := hash(cfg), len(r.index)-1
	for i := int(h) & mask; mask > 0 && r.index[i] != 0; i = (i + 1) & mask {
		if s := r.index[i] - 1; r.recs[s].hash == h && r.equal(s, cfg) {
			return s
		}
	}
	return -1
}

// add gives cfg a slot, an evicted record's or a new one, and enters it in
// the key index. Slots grow by doubling, the index with them.
func (r *Records) add(cfg resource.Config) int32 {
	slot := int32(len(r.recs))
	if n := len(r.free); n > 0 {
		slot, r.free = r.free[n-1], r.free[:n-1]
	} else {
		if len(r.recs) == cap(r.recs) {
			n := max(4, 2*len(r.recs))
			r.recs = append(make([]record, 0, n), r.recs...)
			r.units = append(make([]uint16, 0, n*r.space.Dim()), r.units...)
			r.order = append(make([]int32, 0, n), r.order...)
			r.index = make([]int32, 2*n)
			for _, s := range r.order {
				r.insertKey(s)
			}
		}
		r.recs, r.units = r.recs[:slot+1], r.units[:len(r.units)+r.space.Dim()]
	}
	r.recs[slot] = record{row: -1, hash: hash(cfg), stamp: r.recs[slot].stamp + 1}
	u := r.unitsOf(slot)
	for _, row := range cfg.Alloc {
		for j, v := range row {
			u[j] = uint16(v)
		}
		u = u[len(row):]
	}
	r.insertKey(slot)
	return slot
}

// insertKey enters slot at the first empty index entry from its hash on.
func (r *Records) insertKey(slot int32) {
	mask := len(r.index) - 1
	i := int(r.recs[slot].hash) & mask
	for r.index[i] != 0 {
		i = (i + 1) & mask
	}
	r.index[i] = slot + 1
}

// deleteKey takes slot out of the key index. Each entry after it, up to the
// next empty one, whose home lies at or before the hole moves back into it,
// so every entry stays reachable by its probe.
func (r *Records) deleteKey(slot int32) {
	mask := len(r.index) - 1
	i := int(r.recs[slot].hash) & mask
	for r.index[i] != slot+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; r.index[j] != 0; j = (j + 1) & mask {
		if home := int(r.recs[r.index[j]-1].hash) & mask; (j-home)&mask >= (j-i)&mask {
			r.index[i], i = r.index[j], j
		}
	}
	r.index[i] = 0
}

// precedes reports whether slot a comes before slot b in Window's order,
// equal ticks by their keys, built into stack buffers.
func (r *Records) precedes(a, b int32) bool {
	if ta, tb := r.recs[a].lastTick, r.recs[b].lastTick; ta != tb {
		return ta > tb
	}
	var ka, kb [256]byte
	return string(r.appendKey(ka[:0], a)) < string(r.appendKey(kb[:0], b))
}

// appendKey appends slot's Config.Key to dst.
func (r *Records) appendKey(dst []byte, slot int32) []byte {
	for i, u := range r.unitsOf(slot) {
		if i > 0 && i%r.space.Jobs == 0 {
			dst = append(dst, '|')
		} else if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, uint64(u), 10)
	}
	return dst
}

// place moves order[at] to after every other record that precedes it.
// Callers' ticks only rise, so the search stops at the head; it exists for
// ties and for a tick that steps back.
func (r *Records) place(at int) {
	s, o, to := r.order[at], r.order, 0
	for to < len(o) && (to == at || r.precedes(o[to], s)) {
		to++
	}
	if to > at {
		to-- // the slots past at move up one
		copy(o[at:to], o[at+1:to+1])
	} else {
		copy(o[to+1:at+1], o[to:at])
	}
	o[to] = s
}

// evictOldest removes the least recently evaluated record, the smallest
// key among those at the oldest tick: in order, the first member of the
// tail's tie group.
func (r *Records) evictOldest() {
	at := len(r.order) - 1
	for at > 0 && r.recs[r.order[at-1]].lastTick == r.recs[r.order[at]].lastTick {
		at--
	}
	victim := r.order[at]
	r.order = append(r.order[:at], r.order[at+1:]...)
	r.deleteKey(victim)
	r.free = append(r.free, victim)
}

// ref returns the ref of the record in slot.
func (r *Records) ref(slot int32) ref { return ref{slot, r.recs[slot].stamp} }

// window returns the first n slots of order, all of them when n <= 0.
func (r *Records) window(n int) []int32 {
	if n <= 0 || n > len(r.order) {
		n = len(r.order)
	}
	return r.order[:n:n]
}

// configInto writes slot's configuration into c.
func (r *Records) configInto(c resource.Config, slot int32) {
	u := r.unitsOf(slot)
	for _, row := range c.Alloc {
		for j := range row {
			row[j] = int(u[j])
		}
		u = u[len(row):]
	}
}

// objective is Record.Objective of the record in slot.
func (r *Records) objective(slot int32, w Weights) float64 {
	return w.T*r.recs[slot].throughput + w.F*r.recs[slot].fairness
}

// Len returns the number of distinct configurations recorded.
func (r *Records) Len() int { return len(r.order) }

// HeadHits counts the updates whose configuration was the head's, the
// one recorded last: found without probing the key index.
func (r *Records) HeadHits() int { return r.headHits }

// Window returns up to n records, most recently evaluated first (all of
// them when n <= 0), each built afresh from the store.
func (r *Records) Window(n int) []*Record {
	out := make([]*Record, 0, len(r.window(n)))
	for _, s := range r.window(n) {
		c, rec := r.space.NewConfig(), r.recs[s]
		r.configInto(c, s)
		out = append(out, &Record{Config: c, Key: c.Key(), Vector: r.space.Vector(c),
			Throughput: rec.throughput, Fairness: rec.fairness, LastTick: rec.lastTick, Visits: rec.visits})
	}
	return out
}
