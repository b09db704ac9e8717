package core

import (
	"satori/internal/resource"
)

// Record is the per-configuration entry of SATORI's separate goal-wise
// performance store (Sec. III-B): the latest observed throughput and
// fairness of a configuration, kept independently so the scalar objective
// can be reconstructed in software whenever the goal weights change,
// without re-sampling any configuration.
type Record struct {
	// Config is the configuration this record describes.
	Config resource.Config
	// Key is Config.Key(), memoized so per-tick consumers (window
	// ordering, proxy-change tracking) never rebuild the string.
	Key string
	// Vector is the GP input encoding of Config.
	Vector []float64
	// Throughput and Fairness are the most recent normalized
	// observations of each goal under Config.
	Throughput, Fairness float64
	// LastTick is when the configuration was last evaluated.
	LastTick int
	// Visits counts how many times the configuration has been run.
	Visits int

	// Bookkeeping of the engine that owns the store. row is the record's
	// row in the proxy model, valid only while modelRecs[row] is this
	// record; pred is its latest posterior mean, the previous prediction
	// for proxy-change sweep number predFor only (sweeps count from 1).
	row     int
	pred    float64
	predFor int

	// newer and older link the store's recency list (see Records).
	newer, older *Record
}

// Records stores one Record per distinct configuration. To bound memory
// over arbitrarily long runs, the store evicts the least recently
// evaluated configurations once it exceeds its capacity; the proxy-model
// window only ever reads the most recent entries, so eviction does not
// change engine behavior.
//
// Besides the key index, every record sits on one doubly linked list, head
// to tail in Window's order: LastTick descending, then Key ascending among
// equal ticks. Update re-inserts the record it touches, so a window is a
// prefix of the list and nothing is ever sorted or scanned.
type Records struct {
	bySig      map[string]*Record
	head, tail *Record
	cap        int
	// keyBuf holds the key Update last looked up; headHits counts the
	// updates that found their record at the head without one.
	keyBuf   []byte
	headHits int
}

// DefaultRecordCap bounds the store; it is comfortably larger than any
// sensible proxy-model window.
const DefaultRecordCap = 1024

// NewRecords returns an empty store with the default capacity.
func NewRecords() *Records {
	return &Records{bySig: make(map[string]*Record), cap: DefaultRecordCap}
}

// Update folds a fresh (throughput, fairness) observation for cfg. The
// latest observation replaces the previous one: under phase changes the
// newest measurement is the relevant belief, and the paper explicitly
// keeps previously sampled configurations eligible for re-evaluation.
func (r *Records) Update(space *resource.Space, cfg resource.Config, throughput, fairness float64, tick int) *Record {
	// The head is the configuration recorded last, which a steady tick
	// records again. Equal configurations have equal keys, so comparing
	// allocations finds the record the map would.
	rec := r.head
	if rec != nil && rec.Config.Equal(cfg) {
		r.headHits++
		r.unlink(rec)
	} else {
		if rec = r.lookup(cfg); rec != nil {
			r.unlink(rec)
		} else {
			rec = &Record{Config: cfg.Clone(), Key: string(r.keyBuf), Vector: space.Vector(cfg)}
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

// lookup returns cfg's record, or nil, its key built in keyBuf.
func (r *Records) lookup(cfg resource.Config) *Record {
	r.keyBuf = cfg.AppendKey(r.keyBuf[:0])
	return r.bySig[string(r.keyBuf)]
}

// precedes reports whether a comes before b in Window's order.
func precedes(a, b *Record) bool {
	if a.LastTick != b.LastTick {
		return a.LastTick > b.LastTick
	}
	return a.Key < b.Key
}

// insert links an unlinked rec in after every record that precedes it.
// Callers' ticks only rise, so the walk stops at the head; it exists for
// ties and for a tick that steps back.
func (r *Records) insert(rec *Record) {
	var newer *Record
	older := r.head
	for older != nil && precedes(older, rec) {
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

// unlink takes rec off the list.
func (r *Records) unlink(rec *Record) {
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

// evictOldest removes the least recently evaluated record, the smallest
// key among those at the oldest tick: in list order, the newest member of
// the tail's tie group.
func (r *Records) evictOldest() {
	victim := r.tail
	for victim.newer != nil && victim.newer.LastTick == victim.LastTick {
		victim = victim.newer
	}
	r.unlink(victim)
	delete(r.bySig, victim.Key)
}

// Len returns the number of distinct configurations recorded.
func (r *Records) Len() int { return len(r.bySig) }

// HeadHits counts the updates whose configuration was the head's, the
// one recorded last: found without building its key.
func (r *Records) HeadHits() int { return r.headHits }

// Window returns up to n records, most recently evaluated first (all of
// them when n <= 0). The returned slice is freshly allocated but shares
// Record pointers.
func (r *Records) Window(n int) []*Record {
	return r.WindowInto(nil, n)
}

// WindowInto is Window writing into dst[:0], for per-tick callers that
// reuse the slice.
func (r *Records) WindowInto(dst []*Record, n int) []*Record {
	all := dst[:0]
	for rec := r.head; rec != nil && (n <= 0 || len(all) < n); rec = rec.older {
		all = append(all, rec)
	}
	return all
}

// Objective reconstructs the scalar objective of Eq. 2 for a record under
// the given weights — the software proxy-model reconstruction that
// replaces re-sampling when the objective function changes.
func (rec *Record) Objective(w Weights) float64 {
	return w.T*rec.Throughput + w.F*rec.Fairness
}
