// Command benchmark is the repository's end-to-end benchmark: seven
// workloads over the whole stack (single-node sessions, fleets, the
// experiment suite, the daemon), six end-to-end metrics per workload, and a
// traced mode that attributes a tick to its layers. README.md in this
// directory says why each workload exists and how to read the numbers.
//
// Driver mode, one workload per invocation (the contract BENCHMARK.json
// states; run.sh builds and forwards):
//
//	benchmark --workload node_steady --seed 1 --seconds 10 --trace 0
//
// prints every metric as `name value unit` and, as the last line, one JSON
// object {correct, attempted, failed, metrics}. Without --workload it runs
// every workload in turn, each in a child process (see suite.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (empty: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass and probes")
	scale := flag.Float64("scale", 1, "multiplies warm-up and exact-prefix tick counts (smoke runs; recorded in the output)")
	out := flag.String("out", "", "directory to write the traced pass's spans to (trace 1 only)")
	sets := flag.Int("sets", 1, "suite mode: run this many full sets, workloads interleaved, and compare their medians")
	traced := flag.Bool("traced", false, "suite mode: also run every workload with --trace 1")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *scale <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runSuiteMode(*seed, *seconds, *scale, *sets, *traced, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	e := env{seed: workloadSeed(*seed, w.name), scale: *scale}
	total := time.Duration(*seconds * float64(time.Second))
	var o *output
	var err error
	if *trace == 0 {
		o, err = runUntraced(w, e, total)
	} else {
		o, err = runTraced(w, e, total, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(o)
	if err != nil {
		// A NaN or Inf metric: something was not measured.
		fmt.Fprintf(os.Stderr, "benchmark: %s: unprintable result: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workloadSeed derives a workload's own seed from the run seed (FNV-1a of
// the name folded into a splitmix64 step), so workloads never share an
// input stream.
func workloadSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	x := seed*0x9E3779B97F4A7C15 + h
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// roundSeed derives round r's seed; round 0 (the only one a traced run
// uses) keeps the workload's seed.
func roundSeed(seed uint64, r int) uint64 {
	if r == 0 {
		return seed
	}
	return workloadSeed(seed, fmt.Sprint("round ", r))
}

func printHeader(w workload, e env, mode string) {
	fmt.Printf("# workload %s (%s): %s\n", w.name, mode, w.why)
	fmt.Printf("# host GOMAXPROCS=%d NumCPU=%d %s %s/%s scale=%g seed=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, e.scale, e.seed)
}

func printMetrics(defs []metricDef, values map[string]float64) map[string]outMetric {
	out := make(map[string]outMetric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		fmt.Printf("%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		out[d.name] = outMetric{Value: v, Unit: d.unit}
	}
	return out
}

// runUntraced is --trace 0: the workload's number of rounds, each a set-up
// followed by a slice of the measured time. Every round derives its own
// seed from the run's, because the scores and the cost of a tick both
// depend on where the search settles: a round reports medians (of its
// operations, of its chunks' rates), and the run reports the mean of its
// rounds, so that it averages over input streams instead of picking one.
func runUntraced(w workload, e env, total time.Duration) (*output, error) {
	printHeader(w, e, "untraced")
	rounds := w.rounds
	e.slice = total / time.Duration(rounds)
	o := &output{Correct: true}
	var setups, ops, rates, rawSetups, rawOps, rawRates, factors, heaps []float64
	var quality [2]float64
	var digests []string
	var nOps, nChunks int
	for r := 0; r < rounds; r++ {
		re := e
		re.seed = roundSeed(e.seed, r)
		res, err := w.run(re)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r+1, err)
		}
		m := res.m
		op, rate, rawOp, rawRate, speed := median(m.ops), median(m.rates), median(m.rawOps), median(m.rawRates), median(m.factors)
		fmt.Printf("# round %d: setup %.3f s (raw %.3f), %d ops, rate %.5g /s (raw %.5g), op p50 %.1f us, speed %.3f\n",
			r+1, res.setup.Seconds(), res.rawSetup.Seconds(), len(m.ops), rate, rawRate, op/1e3, speed)
		setups = append(setups, res.setup.Seconds())
		rawSetups = append(rawSetups, res.rawSetup.Seconds())
		ops, rates = append(ops, op), append(rates, rate)
		rawOps, rawRates = append(rawOps, rawOp), append(rawRates, rawRate)
		factors = append(factors, speed)
		nOps += len(res.m.ops)
		nChunks += len(res.m.rates)
		o.Attempted += res.attempted
		o.Failed += res.failed
		for _, msg := range res.errs {
			o.Correct = false
			fmt.Printf("# CHECK FAILED round %d: %s\n", r+1, msg)
		}
		heaps = append(heaps, float64(res.liveHeap)/(1<<20))
		quality[0] += res.quality[0] / float64(rounds)
		quality[1] += res.quality[1] / float64(rounds)
		digests = append(digests, res.digest)
	}
	if w.deterministic {
		dig := newDigester()
		dig.text(strings.Join(digests, " "))
		fmt.Printf("# digest %s (over %d rounds; round 1: %s)\n", dig.sum(), rounds, digests[0])
	}
	fmt.Printf("# samples: %d rounds (set-ups), %d operations, %d rate chunks\n", rounds, nOps, nChunks)
	// What the wall clock of this host saw, before the yardstick
	// correction (meter.go); host_speed 1 is the reference host.
	fmt.Printf("raw_setup_s %g s\nraw_ticks_per_s %g 1/s\nraw_op_p50_us %g us\nhost_speed %g ratio\npeak_rss_mb %g MB\n",
		mean(rawSetups), mean(rawRates), mean(rawOps)/1e3, mean(factors), peakRSSMB())
	if !o.Correct {
		o.Failed++
	}
	o.Metrics = printMetrics(endToEnd, map[string]float64{
		"setup_s":          mean(setups),
		"ticks_per_s":      mean(rates),
		"op_p50_us":        mean(ops) / 1e3,
		"objective_score":  0.5*quality[0] + 0.5*quality[1],
		"throughput_score": quality[0],
		"fairness_score":   quality[1],
		"live_heap_mb":     mean(heaps),
	})
	fmt.Printf("failed_frac %g ratio\n", float64(o.Failed)/float64(max(1, o.Attempted)))
	return o, nil
}

// runTraced is --trace 1: an untraced reference round, the same round with
// the policy and platform seams wrapped, then a traced session at the
// workload's shape (the traced round itself for the node workloads) whose
// spans, counters and shapes feed the per-layer metrics and the probes.
func runTraced(w workload, e env, total time.Duration, outDir string) (*output, error) {
	printHeader(w, e, "traced")
	e.slice = total / 2
	o := &output{Correct: true}
	fail := func(format string, args ...any) {
		o.Correct = false
		fmt.Printf("# CHECK FAILED "+format+"\n", args...)
	}

	plain, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("untraced round: %w", err)
	}
	te := e
	te.tr = newTracer(w.opName, 1<<21)
	te.tr.paused.Store(true)
	traced, err := w.run(te)
	if err != nil {
		return nil, fmt.Errorf("traced round: %w", err)
	}
	for _, res := range []*result{plain, traced} {
		o.Attempted += res.attempted
		o.Failed += res.failed
		for _, msg := range res.errs {
			fail("%s", msg)
		}
	}
	if w.deterministic {
		fmt.Printf("# digest untraced %s traced %s\n", plain.digest, traced.digest)
		if plain.digest != traced.digest {
			fail("tracing changed the run: digest %s untraced, %s traced", plain.digest, traced.digest)
		}
	}
	if n := te.tr.invalid.Load(); n > 0 {
		fail("%d applied configurations failed Space.Validate", n)
	}

	values := map[string]float64{}
	for _, d := range perLayer {
		values[d.name] = 0
	}
	up, tp := median(plain.m.rates), median(traced.m.rates)
	speed := median(traced.m.factors)
	values["bench.trace_overhead_pct"] = 100 * (up - tp) / up
	values["bench.op_p99_us"] = quantile(plain.m.ops, 0.99) / 1e3
	values["bench.op_self_us"] = speed * median(te.tr.selfTimes(spanOp)) / 1e3
	values["bench.allocs_per_tick"] = float64(plain.mallocs) / plain.ticks
	values["bench.spans_dropped"] = float64(te.tr.dropped.Load())
	values["bench.host_speed"] = median(append(plain.m.factors, traced.m.factors...))
	values["bench.peak_rss_mb"] = peakRSSMB()

	shape := traced.shape
	if shape != nil {
		shape.speed = speed
	}
	if shape == nil {
		if shape, err = w.shape(e); err != nil {
			return nil, fmt.Errorf("shape session: %w", err)
		}
		if n := shape.tr.invalid.Load(); n > 0 {
			fail("shape session: %d applied configurations failed Space.Validate", n)
		}
	}
	layers, decideTailUs, err := layerMetrics(shape)
	if err != nil {
		return nil, err
	}
	probes, ps, err := runProbes(shape, e.seed)
	if err != nil {
		return nil, err
	}
	for _, m := range []map[string]float64{layers, probes, plain.counters, traced.counters} {
		for k, v := range m {
			values[k] = v
		}
	}
	values["core.pool_size"] = float64(ps.pool)
	values["core.budget_coverage"] = budgetCoverage(probes, decideTailUs)
	fmt.Printf("# shape: jobs=%d dim=%d window=%d pool=%d (session of %d ticks)\n", ps.jobs, ps.dim, ps.window, ps.pool, shape.ticks)
	fmt.Printf("# spans: %d recorded, %d dropped\n", len(te.tr.recorded()), te.tr.dropped.Load())

	if !o.Correct {
		o.Failed++
	}
	o.Metrics = printMetrics(perLayer, values)
	// Workload-specific numbers, as text only: the client-side view comes
	// from the untraced round, span-derived ones from the traced round.
	extras := plain.extras
	if len(extras) == 0 {
		extras = traced.extras
	}
	for _, m := range extras {
		fmt.Printf("%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, w.name+".spans.csv")
		if err := te.tr.writeCSV(path); err != nil {
			return nil, err
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured (%v)", name, v)
		}
	}
	return o, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the Go runtime's own footprint is the closest stand-in.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
