package main

import (
	"strings"
	"testing"
)

// TestGates: a gate that holds exits 0 and one that fails exits 1. A bound
// no ratio can fall below (NaN, ±Inf, zero, negative) and a benchmark value
// that is not finite used to pass every gate; each now exits 2, naming the
// gate or the input line.
func TestGates(t *testing.T) {
	const input = "goos: linux\nBenchmarkA-2 \t 10 \t 300 ns/op \t 4.0 ns/cand\nBenchmarkB-2 \t 10 \t 100 ns/op \t 1.0 ns/cand\n"
	for _, c := range []struct {
		name  string
		gates []string
		input string
		code  int
		names string // what stderr must mention
	}{
		{"holds", []string{"A/B=2.5"}, input, 0, ""},
		{"holds on a unit", []string{"A/B:ns/cand=250"}, input, 0, ""},
		{"fails", []string{"A/B=4"}, input, 1, "A / B = 3.00, below required 4.00"},
		{"names a missing benchmark", []string{"A/C=1"}, input, 1, `benchmark "C" not in input`},
		{"NaN bound", []string{"A/B=NaN"}, input, 2, `"A/B=NaN" can never fail`},
		{"negative bound", []string{"A/B=-1"}, input, 2, `"A/B=-1" can never fail`},
		{"zero bound", []string{"A/B=0"}, input, 2, `"A/B=0" can never fail`},
		{"infinite bound", []string{"A/B=+Inf"}, input, 2, `"A/B=+Inf" can never fail`},
		{"refused among good gates", []string{"A/B=2", "B/A=-Inf"}, input, 2, `"B/A=-Inf" can never fail`},
		{"malformed gate", []string{"A-B=2"}, input, 2, `malformed "A-B=2"`},
		{"NaN value", []string{"A/B=2"}, "BenchmarkA-2 10 NaN ns/op\nBenchmarkB-2 10 100 ns/op\n", 2, `"BenchmarkA-2 10 NaN ns/op"`},
		{"infinite value", []string{"A/B=2"}, "BenchmarkA-2 10 300 ns/op\nBenchmarkB-2 10 +Inf ns/op\n", 2, `"BenchmarkB-2 10 +Inf ns/op"`},
		{"no benchmark lines", []string{"A/B=2"}, "PASS\n", 2, "no benchmark lines"},
	} {
		var args []string
		for _, g := range c.gates {
			args = append(args, "-min-ratio", g)
		}
		var stderr strings.Builder
		if code := run(args, strings.NewReader(c.input), &stderr); code != c.code {
			t.Errorf("%s: exit %d, want %d; stderr:\n%s", c.name, code, c.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.names) {
			t.Errorf("%s: stderr does not name %q:\n%s", c.name, c.names, stderr.String())
		}
	}
}
