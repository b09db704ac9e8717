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
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	var minRatios []string
	flag.Func("min-ratio", "A[:unit]/B[:unit]=R gate: fail when the ratio is below R (repeatable)",
		func(v string) error { minRatios = append(minRatios, v); return nil })
	flag.Parse()

	metrics, err := parse(bufio.NewScanner(os.Stdin))
	if err == nil && len(metrics) == 0 {
		err = fmt.Errorf("benchjson: no benchmark lines on stdin")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := false
	for _, g := range minRatios {
		if err := gateRatio(metrics, g); err != nil {
			fmt.Fprintln(os.Stderr, "GATE FAILED:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
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
			if err != nil {
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

// gateRatio enforces A[:unit]/B[:unit]=R.
func gateRatio(metrics map[string]map[string]float64, gate string) error {
	spec, minStr, ok := strings.Cut(gate, "=")
	numRef, denRef, ok2 := strings.Cut(spec, "/")
	if !ok || !ok2 {
		return fmt.Errorf("malformed -min-ratio %q (want A/B=R)", gate)
	}
	min, err := strconv.ParseFloat(minStr, 64)
	if err != nil {
		return fmt.Errorf("malformed -min-ratio %q: %w", gate, err)
	}
	num, err := metric(metrics, numRef)
	if err != nil {
		return fmt.Errorf("-min-ratio %s: %w", gate, err)
	}
	den, err := metric(metrics, denRef)
	if err != nil {
		return fmt.Errorf("-min-ratio %s: %w", gate, err)
	}
	if den <= 0 {
		return fmt.Errorf("-min-ratio %s: denominator is %v", gate, den)
	}
	if ratio := num / den; ratio < min {
		return fmt.Errorf("%s / %s = %.2f, below required %.2f", numRef, denRef, ratio, min)
	}
	return nil
}
