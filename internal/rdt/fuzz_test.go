package rdt

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzParseCPUList ensures the kernel CPU-list parser never panics, never
// expands past maxCPUs, and that accepted inputs round-trip through
// FormatCPUList semantically.
func FuzzParseCPUList(f *testing.F) {
	for _, seed := range []string{"", "0", "0-2", "0,2-3,5", "7-9,11", "1,1,2", "x", "3-1", "-", "0-2000000000"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// The list is expanded id by id, so what it may name is bounded;
		// a parser that is not done in a second is expanding a range no
		// machine has, and is failed here before it fills memory.
		var cpus []int
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			cpus, err = ParseCPUList(s)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("ParseCPUList(%q) is still expanding after 1 s", s)
		}
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if len(cpus) > maxCPUs {
			t.Fatalf("ParseCPUList(%q) names %d cpus, bound %d", s, len(cpus), maxCPUs)
		}
		for _, c := range cpus {
			if c < 0 || c >= maxCPUs {
				t.Fatalf("ParseCPUList(%q) produced cpu %d outside 0..%d", s, c, maxCPUs-1)
			}
		}
		// Accepted inputs must survive a format/parse round trip as a
		// set.
		back, err := ParseCPUList(FormatCPUList(cpus))
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", s, err)
		}
		set := map[int]bool{}
		for _, c := range cpus {
			set[c] = true
		}
		for _, c := range back {
			if !set[c] {
				t.Fatalf("round trip of %q invented cpu %d", s, c)
			}
			delete(set, c)
		}
		if len(set) != 0 {
			t.Fatalf("round trip of %q lost cpus %v", s, set)
		}
	})
}

// FuzzParseSchemata: the schemata parser never panics, accepts only input
// with both an L3 and an MB line, and what it accepts is a value
// FormatSchemata renders back to text it reads unchanged — mask and MB
// percent (negative percents parse; Plan.Validate is what rejects them).
func FuzzParseSchemata(f *testing.F) {
	for _, seed := range []string{
		"L3:0=7\nMB:0=20\n", "L3:0=ff\nMB:0=100", "", "L3:0", "L2:0=1\nMB:0=10",
		"L3:0=zz\nMB:0=20", "MB:0=20\nL3:0=38",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ja, err := ParseSchemata(s)
		if err != nil {
			return
		}
		if !strings.Contains(s, "L3") || !strings.Contains(s, "MB") {
			t.Fatalf("ParseSchemata(%q) accepted input without both lines", s)
		}
		back, err := ParseSchemata(FormatSchemata(ja))
		if err != nil || back.CATMask != ja.CATMask || back.MBAPercent != ja.MBAPercent {
			t.Fatalf("ParseSchemata(%q) = mask %x, MB %d; after a format/parse round trip mask %x, MB %d, err %v",
				s, ja.CATMask, ja.MBAPercent, back.CATMask, back.MBAPercent, err)
		}
	})
}

// FuzzParseFaultScript: a script the parser accepts is one its consumer
// can hold — every fault's call range bounded, the whole script at most
// 100 000 faulted calls — and NewFaultInjector accepts it. The bounds are
// checked before the injector is built, so a parser that lets the
// 300-million repeat through fails here instead of filling memory.
func FuzzParseFaultScript(f *testing.F) {
	for _, seed := range []string{
		"", "sample:nan@50,apply:error@100x3,sample:error@150", "resync:fatal@4x2, measure:latency@7",
		"apply:error@1x300000000", "apply:error@1x100000", "apply:error@1x60000,sample:error@1x60000",
		"apply:error@9223372036854775807x2", "apply:error@9223372036854775807", "apply:nan@1",
		"apply:error@0", "apply:error@1x0", "apply:error@1x", "apply@1", "apply:error", "x", ",",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		script, err := ParseFaultScript(spec)
		if err != nil {
			return
		}
		faulted := 0
		for _, fault := range script.Faults {
			if fault.Call < 1 || fault.Repeat < 1 || fault.Repeat > 100000 || fault.Call+fault.Repeat < fault.Call {
				t.Fatalf("ParseFaultScript(%q) accepted the unbounded fault %+v", spec, fault)
			}
			faulted += fault.Repeat
		}
		if faulted > 100000 {
			t.Fatalf("ParseFaultScript(%q) accepted a script faulting %d calls", spec, faulted)
		}
		if _, err := NewFaultInjector(nil, script); err != nil {
			t.Fatalf("ParseFaultScript(%q) accepted what NewFaultInjector refuses: %v", spec, err)
		}
	})
}

// FuzzReadIPSTrace: an accepted trace is finite (baselines positive,
// samples non-negative), rectangular, and survives WriteIPSTrace →
// ReadIPSTrace value for value.
func FuzzReadIPSTrace(f *testing.F) {
	for _, seed := range []string{
		"2e9,3e9\n1e9,1.5e9\n", "# capture\n\n2e9\n0\n", "NaN,2e9,2e9\n1e9,1e9,1e9\n", "2e9,2e9\n1e9,-1\n",
		"+Inf\n1\n", "2e9\n1e999\n", "0,2e9\n1,1\n", "2e9,2e9\n1e9\n", "2e9,2e9\n1e9,1e9,1e9\n",
		"1,,2\n", "0x1p3,1_0\n", "# only comments\n", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		isolated, rows, err := ReadIPSTrace(strings.NewReader(text))
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for _, v := range isolated {
			if !finite(v) || v <= 0 {
				t.Fatalf("ReadIPSTrace(%q) accepted baseline %g", text, v)
			}
		}
		for i, row := range rows {
			if len(row) != len(isolated) {
				t.Fatalf("ReadIPSTrace(%q): row %d has %d values, baselines %d", text, i, len(row), len(isolated))
			}
			for _, v := range row {
				if !finite(v) || v < 0 {
					t.Fatalf("ReadIPSTrace(%q) accepted sample %g", text, v)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteIPSTrace(&buf, isolated, rows); err != nil {
			t.Fatal(err)
		}
		isolated2, rows2, err := ReadIPSTrace(&buf)
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", text, err)
		}
		if !slices.Equal(isolated, isolated2) || !slices.EqualFunc(rows, rows2, slices.Equal[[]float64]) {
			t.Fatalf("round trip of %q: %v %v became %v %v", text, isolated, rows, isolated2, rows2)
		}
	})
}
