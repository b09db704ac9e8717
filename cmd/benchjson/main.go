// Command benchjson reads `go test -bench` output on stdin and enforces
// ratio gates between benchmarks, so CI fails loudly when a speedup the
// code claims is lost. (It is named for the JSON snapshots it once wrote;
// allocation ceilings are `go test` assertions beside their benchmarks.)
//
// Usage:
//
//	go test -run '^$' -bench SolveLower ./internal/gp | benchjson \
//	    -min-ratio 'SolveLowerVec/SolveLowerMatrix32:ns/cand=2.0'
//
// -min-ratio A[:unit]/B[:unit]=R (repeatable) fails when A's metric over
// B's is below R; the default unit is ns/op, others are the benchmark's
// ReportMetric units. Repeated -count runs collapse to the fastest value.
// A bound that is not a positive finite number, and a benchmark value that
// is not finite, are refused with exit status 2: no gate could fail on
// them.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stderr)) }

// run is the command: exit status 0 when every gate holds, 1 when one
// fails, 2 for a gate that could never fail or input it cannot judge.
func run(args []string, stdin io.Reader, stderr io.Writer) int {
	var gates []gate
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Func("min-ratio", "A[:unit]/B[:unit]=R gate: fail when the ratio is below R (repeatable)",
		func(v string) error {
			g, err := parseGate(v)
			if err == nil {
				gates = append(gates, g)
			}
			return err
		})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		// The flags take no arguments: this is a flag given without its
		// value, which swallowed the next flag.
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	metrics, err := parse(bufio.NewScanner(stdin))
	if err == nil && len(metrics) == 0 {
		err = fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	status := 0
	for _, g := range gates {
		if err := g.check(metrics); err != nil {
			fmt.Fprintln(stderr, "GATE FAILED:", err)
			status = 1
		}
	}
	return status
}

// A gate is one -min-ratio: num's metric over den's must reach min.
type gate struct {
	text, num, den string
	min            float64
}

// parseGate reads A[:unit]/B[:unit]=R. A bound that is NaN, infinite, zero
// or negative is refused: no ratio of two measured values falls below it,
// so the gate could never fail.
func parseGate(text string) (gate, error) {
	spec, minStr, ok := strings.Cut(text, "=")
	num, den, ok2 := strings.Cut(spec, "/")
	if !ok || !ok2 || num == "" || den == "" {
		return gate{}, fmt.Errorf("malformed %q (want A/B=R)", text)
	}
	min, err := strconv.ParseFloat(minStr, 64)
	if err != nil {
		return gate{}, fmt.Errorf("malformed %q: %w", text, err)
	}
	if math.IsNaN(min) || math.IsInf(min, 0) || min <= 0 {
		return gate{}, fmt.Errorf("%q can never fail: the bound must be a positive finite number", text)
	}
	return gate{text, num, den, min}, nil
}

// parse collects each benchmark's metrics by unit, keeping the smallest
// value of repeated runs.
func parse(sc *bufio.Scanner) (map[string]map[string]float64, error) {
	metrics := map[string]map[string]float64{}
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		// BenchmarkName-P  N  V unit  [V unit]...
		if !strings.HasPrefix(line, "Benchmark") || len(fields) < 4 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		if metrics[name] == nil {
			metrics[name] = map[string]float64{}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				// A NaN passes every gate: NaN < R is false.
				return nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			unit := fields[i+1]
			if cur, ok := metrics[name][unit]; !ok || v < cur {
				metrics[name][unit] = v
			}
		}
	}
	return metrics, sc.Err()
}

// metric resolves NAME[:unit] against the parsed benchmarks.
func metric(metrics map[string]map[string]float64, ref string) (float64, error) {
	name, unit, hasUnit := strings.Cut(ref, ":")
	if !hasUnit {
		unit = "ns/op"
	}
	byUnit, ok := metrics[name]
	if !ok {
		return 0, fmt.Errorf("benchmark %q not in input", name)
	}
	v, ok := byUnit[unit]
	if !ok {
		return 0, fmt.Errorf("benchmark %q has no %q metric", name, unit)
	}
	return v, nil
}

// check enforces the gate against the parsed benchmarks.
func (g gate) check(metrics map[string]map[string]float64) error {
	num, err := metric(metrics, g.num)
	if err != nil {
		return fmt.Errorf("-min-ratio %s: %w", g.text, err)
	}
	den, err := metric(metrics, g.den)
	if err != nil {
		return fmt.Errorf("-min-ratio %s: %w", g.text, err)
	}
	if den <= 0 {
		return fmt.Errorf("-min-ratio %s: denominator is %v", g.text, den)
	}
	if ratio := num / den; ratio < g.min {
		return fmt.Errorf("%s / %s = %.2f, below required %.2f", g.num, g.den, ratio, g.min)
	}
	return nil
}
