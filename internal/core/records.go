package core

import (
	"cmp"
	"slices"

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
	// sorting, proxy-change tracking) never rebuild the string.
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
}

// Records stores one Record per distinct configuration. To bound memory
// over arbitrarily long runs, the store evicts the least recently
// evaluated configurations once it exceeds its capacity; the proxy-model
// window only ever reads the most recent entries, so eviction does not
// change engine behavior.
type Records struct {
	bySig map[string]*Record
	cap   int
}

// DefaultRecordCap bounds the store; it is comfortably larger than any
// sensible proxy-model window.
const DefaultRecordCap = 1024

// NewRecords returns an empty store with the default capacity.
func NewRecords() *Records {
	return &Records{bySig: make(map[string]*Record), cap: DefaultRecordCap}
}

// SetCap overrides the eviction capacity (minimum 1).
func (r *Records) SetCap(n int) {
	if n < 1 {
		n = 1
	}
	r.cap = n
}

// Update folds a fresh (throughput, fairness) observation for cfg. The
// latest observation replaces the previous one: under phase changes the
// newest measurement is the relevant belief, and the paper explicitly
// keeps previously sampled configurations eligible for re-evaluation.
func (r *Records) Update(space *resource.Space, cfg resource.Config, throughput, fairness float64, tick int) *Record {
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
	for len(r.bySig) > r.cap {
		r.evictOldest()
	}
	return rec
}

// evictOldest removes the least recently evaluated record.
func (r *Records) evictOldest() {
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
}

// Len returns the number of distinct configurations recorded.
func (r *Records) Len() int { return len(r.bySig) }

// Has reports whether cfg has been evaluated before.
func (r *Records) Has(cfg resource.Config) bool {
	_, ok := r.bySig[cfg.Key()]
	return ok
}

// Window returns up to n records, most recently evaluated first. The
// returned slice is freshly allocated but shares Record pointers.
func (r *Records) Window(n int) []*Record {
	return r.WindowInto(nil, n)
}

// WindowInto is Window writing into dst[:0], for per-tick callers that
// reuse the slice.
func (r *Records) WindowInto(dst []*Record, n int) []*Record {
	all := dst[:0]
	for _, rec := range r.bySig {
		all = append(all, rec)
	}
	// A strict total order (keys are unique), so the unstable sort has
	// exactly one result.
	slices.SortFunc(all, func(a, b *Record) int {
		if a.LastTick != b.LastTick {
			return cmp.Compare(b.LastTick, a.LastTick)
		}
		// Deterministic tie-break for replayability.
		return cmp.Compare(a.Key, b.Key)
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Objective reconstructs the scalar objective of Eq. 2 for a record under
// the given weights — the software proxy-model reconstruction that
// replaces re-sampling when the objective function changes.
func (rec *Record) Objective(w Weights) float64 {
	return w.T*rec.Throughput + w.F*rec.Fairness
}
