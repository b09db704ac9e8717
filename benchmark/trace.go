package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names a layer boundary the benchmark can observe from outside
// the program: the workload's own operation, and the calls the program
// makes into a policy or a platform that the benchmark wrapped.
type spanKind uint8

const (
	spanOp         spanKind = iota // control.step | fleet.step | harness.pass | server.request
	spanCell                       // harness.cell (child of a pass)
	spanDecide                     // policy.decide
	spanSample                     // rdt.sample
	spanApply                      // rdt.apply
	spanMeasure                    // rdt.measure_isolated
	spanChurn                      // rdt.churn (add / remove / replace job)
	spanSampleFast                 // rdt.sample_fast
	spanSkipFast                   // rdt.skip_fast
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "harness.cell", "policy.decide", "rdt.sample", "rdt.apply",
	"rdt.measure_isolated", "rdt.churn", "rdt.sample_fast", "rdt.skip_fast",
}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; parent is the index of the span that caused this one (-1 for a
// root); id is the tick, request or cell number the span belongs to.
type span struct {
	start, end int64
	parent     int32
	id         int32
	kind       spanKind
}

// tracer keeps spans in a preallocated slice so that recording one costs an
// atomic add and two clock reads. Several goroutines may record at once
// (fleet workers, suite cells, the daemon's tick goroutine); the slice is
// only read after they have stopped.
type tracer struct {
	opName  string
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	// cur is the in-flight op span and curID its id: spans recorded by the
	// platform and policy wrappers hang under it. -1 when no op is open.
	cur   atomic.Int32
	curID atomic.Int32
	// invalid counts applied configurations that failed Space.Validate.
	invalid atomic.Int64
	// paused drops spans without counting them: set-up is not traced.
	paused atomic.Bool
}

func newTracer(opName string, capacity int) *tracer {
	t := &tracer{opName: opName, epoch: time.Now(), spans: make([]span, capacity)}
	t.cur.Store(-1)
	return t
}

// begin opens a span and returns its index, or -1 when the buffer is full
// (the span is then counted as dropped, never silently lost).
func (t *tracer) begin(kind spanKind, parent, id int32) int32 {
	if t.paused.Load() {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: int64(time.Since(t.epoch)), parent: parent, id: id, kind: kind}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

// beginOp opens the workload's operation span and makes it the parent of
// whatever the wrappers record until endOp.
func (t *tracer) beginOp(id int32) int32 {
	i := t.begin(spanOp, -1, id)
	t.cur.Store(i)
	t.curID.Store(id)
	return i
}

func (t *tracer) endOp(i int32) {
	t.end(i)
	t.cur.Store(-1)
}

// child opens a span under the in-flight op.
func (t *tracer) child(kind spanKind) int32 {
	return t.begin(kind, t.cur.Load(), t.curID.Load())
}

func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// durations returns every closed span of one kind, in nanoseconds.
func (t *tracer) durations(kind spanKind) []float64 {
	var out []float64
	for _, s := range t.recorded() {
		if s.kind == kind && s.end >= s.start {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns, for every span of one kind, its duration minus the
// part of that interval its direct children cover. Children that ran in
// parallel (fleet workers, suite cells) overlap, so coverage is the union
// of their intervals clipped to the parent, not their sum.
func (t *tracer) selfTimes(kind spanKind) []float64 {
	spans := t.recorded()
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 && s.end >= s.start {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out []float64
	for i, s := range spans {
		if s.kind != kind || s.end < s.start {
			continue
		}
		iv := children[int32(i)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, float64(s.end-s.start-covered))
	}
	return out
}

// writeCSV dumps every span: name,start_ns,end_ns,parent,id.
func (t *tracer) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,start_ns,end_ns,parent,id")
	for i, s := range t.recorded() {
		name := spanNames[s.kind]
		if s.kind == spanOp {
			name = t.opName
		}
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, name, s.start, s.end, s.parent, s.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation. xs
// is not modified. An empty input gives NaN, which is how a metric that was
// never measured is caught before it is printed (internal/stats returns 0
// there, and the benchmark should not compute its statistics with the code
// it measures anyway).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
