package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// smoke is a run small enough for `go test`: a fiftieth of every tick
// count and a few hundred milliseconds of measurement.
var smoke = env{scale: 0.02}

const smokeSeconds = 300 * time.Millisecond

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkOutput asserts that a result carries exactly the metrics defs names,
// each finite, and that nothing failed.
func checkOutput(t *testing.T, o *output, defs []metricDef) {
	t.Helper()
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d", o.Correct, o.Failed, o.Attempted)
	}
	if len(o.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d defined", len(o.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := o.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not emitted", d.name)
			continue
		}
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.name)
		}
		if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v %s, want a finite value in %s", d.name, m.Value, m.Unit, d.unit)
		}
	}
	if _, err := json.Marshal(o); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

func TestEveryWorkloadUntraced(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			e := smoke
			e.seed = workloadSeed(7, w.name)
			o, err := runUntraced(w, e, smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, o, endToEnd)
			for _, d := range endToEnd {
				if o.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; the contract wants metrics that are never 0", d.name, o.Metrics[d.name].Value)
				}
			}
		})
	}
}

// TestEveryWorkloadTraced also covers the probes and, through the result's
// `correct`, the traced-equals-untraced digest check inside runTraced.
func TestEveryWorkloadTraced(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			e := smoke
			e.seed = workloadSeed(7, w.name)
			o, err := runTraced(w, e, smokeSeconds, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, o, perLayer)
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// own metric and workload tables from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, program has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound mismatch or outside (0, 0.25]", kind, d.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
}
