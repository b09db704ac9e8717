package rdt

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Sampler provides the monitoring half of a resctrl deployment: per-job
// IPS for one 100 ms co-location interval and isolated-execution
// baselines. Partition control (the resctrl side) and monitoring (the
// perf side) are deliberately split — resctrl files carry no performance
// counters, so a real deployment pairs ResctrlWriter with a counter
// reader while tests and replays pair it with a deterministic trace.
type Sampler interface {
	// Sample returns the per-job IPS observed over one 100 ms interval
	// under the given compiled plan, in job order.
	Sample(plan Plan) ([]float64, error)
	// SampleIsolated returns fresh isolated-execution IPS baselines for
	// every job (Algorithm 1 lines 3 and 13).
	SampleIsolated() ([]float64, error)
}

// TraceSampler replays a recorded per-job IPS trace in a loop — the
// deterministic Sampler used for hermetic resctrl tests and offline
// replays of captured runs. The plan passed to Sample is ignored: a
// trace is a fixed recording, not a responsive model.
type TraceSampler struct {
	isolated []float64
	rows     [][]float64
	cursor   int
}

// NewTraceSampler builds a sampler over one isolated-baseline vector and
// at least one per-tick IPS row; every row must have the same width as
// the baselines. Rows replay in order and wrap around.
func NewTraceSampler(isolated []float64, rows [][]float64) (*TraceSampler, error) {
	if len(isolated) == 0 {
		return nil, fmt.Errorf("rdt: trace sampler needs isolated baselines")
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("rdt: trace sampler needs at least one IPS row")
	}
	for i, row := range rows {
		if len(row) != len(isolated) {
			return nil, fmt.Errorf("rdt: trace row %d has %d jobs, baselines have %d", i, len(row), len(isolated))
		}
	}
	return &TraceSampler{isolated: isolated, rows: rows}, nil
}

// Jobs returns the trace's job count.
func (t *TraceSampler) Jobs() int { return len(t.isolated) }

// Sample implements Sampler: it returns a copy of the next recorded row,
// wrapping around at the end of the trace.
func (t *TraceSampler) Sample(Plan) ([]float64, error) {
	row := t.rows[t.cursor]
	t.cursor = (t.cursor + 1) % len(t.rows)
	return append([]float64(nil), row...), nil
}

// SampleIsolated implements Sampler: the recorded baselines, copied.
func (t *TraceSampler) SampleIsolated() ([]float64, error) {
	return append([]float64(nil), t.isolated...), nil
}

// The IPS trace file format is line-oriented text: '#' lines are
// comments, the first data line holds the isolated baselines, and every
// following line is one 100 ms tick's per-job IPS, comma-separated.

// ReadIPSTrace parses the trace file format into baselines + rows. This
// is where a recording enters from outside the program, so a line is
// rejected here, by number, unless every value is a finite IPS (positive
// on the baseline line, non-negative after) and the row baseline-wide.
func ReadIPSTrace(r io.Reader) (isolated []float64, rows [][]float64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var vals []float64
		for _, field := range strings.Split(line, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || isolated == nil && v == 0 {
				return nil, nil, fmt.Errorf("rdt: trace line %d: bad value %q (want a finite IPS, positive on the baseline line and non-negative after)", lineNo, field)
			}
			vals = append(vals, v)
		}
		if isolated == nil {
			isolated = vals
			continue
		}
		if len(vals) != len(isolated) {
			return nil, nil, fmt.Errorf("rdt: trace line %d has %d values, the baseline line has %d", lineNo, len(vals), len(isolated))
		}
		rows = append(rows, vals)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("rdt: reading trace: %w", err)
	}
	if isolated == nil {
		return nil, nil, fmt.Errorf("rdt: trace has no data lines")
	}
	return isolated, rows, nil
}

// LoadTraceSampler reads the trace file format and builds the sampler.
func LoadTraceSampler(r io.Reader) (*TraceSampler, error) {
	isolated, rows, err := ReadIPSTrace(r)
	if err != nil {
		return nil, err
	}
	return NewTraceSampler(isolated, rows)
}

// WriteIPSTrace renders baselines + rows in the trace file format.
func WriteIPSTrace(w io.Writer, isolated []float64, rows [][]float64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# satori IPS trace: first data line = isolated baselines, then one line per 100 ms tick")
	writeRow := func(vals []float64) {
		for i, v := range vals {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%g", v)
		}
		bw.WriteByte('\n')
	}
	writeRow(isolated)
	for _, row := range rows {
		writeRow(row)
	}
	return bw.Flush()
}
