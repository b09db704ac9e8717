// Command benchab compares two builds of the benchmark program pair by
// pair. Each pair runs both binaries once per workload in driver mode
// (--trace 0), switching which side runs first every pair, and reads the
// `name value unit` and `# digest` lines each run prints. Per workload it
// reports every pair's ratio of the seven end-to-end metrics, raw and
// yardstick-corrected, their median with a bootstrap interval and the win
// count, whether the digests and scores are equal, the live-heap spread and
// each side's host speed; and, once, where each binary's linker put
// main.yardstick (its 64-byte class moves the corrected times, ROADMAP
// item 15).
//
// A ratio is oriented so that above 1 means B is better: B/A for a metric
// where higher is better, A/B where lower is. A metric's verdict is
// "better" when its interval lies above 1 + margin, "worse" when below
// 1 − margin, else "within". The margin comes from runs of one binary
// against a copy of itself (see margin).
//
// Usage:
//
//	benchab -a parent/satori-bench -b head/satori-bench -pairs 10 -seconds 3 -seed 1
//	benchab -a X -b Y -workloads node_steady,node_wide -pairs 4 -seconds 1
//
// Build each side with `go build -C <tree>/benchmark -o <binary> .`; the
// parent's tree comes from `git worktree add <dir> HEAD~1`.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// margin is how far from 1 the median ratio of a binary against a
// byte-identical copy of itself strayed: 10 alternated pairs of 3 s runs
// per workload, seed 1, on a shared 2-CPU container, node_steady and
// node_wide, every end-to-end metric raw and corrected. The largest drift
// was node_steady's corrected setup_s, 1.050; the time metrics drifted at
// most 0.035 (CHANGES.md holds the run). An interval must clear it to count
// as a change.
const margin = 0.05

// allWorkloads is the benchmark's workload list, in BENCHMARK.json's order.
const allWorkloads = "node_steady,node_wide,node_clustered,fleet_churn,fleet_sparse,suite_fig7,daemon_churn"

// metric is one end-to-end metric: its name, the name of its uncorrected
// twin ("" when no yardstick correction applies to it), and its direction.
type metric struct {
	name, raw string
	higher    bool
}

var endToEnd = []metric{
	{"setup_s", "raw_setup_s", false},
	{"ticks_per_s", "raw_ticks_per_s", true},
	{"op_p50_us", "raw_op_p50_us", false},
	{"objective_score", "", true},
	{"throughput_score", "", true},
	{"fairness_score", "", true},
	{"live_heap_mb", "", false},
}

// scores are the metrics that are exact per seed on a deterministic
// workload: equal on both sides unless a decision moved.
var scores = []string{"objective_score", "throughput_score", "fairness_score"}

func main() {
	if err := run(os.Stdout, flag.CommandLine, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// options is the parsed command line.
type options struct {
	a, b      string
	workloads []string
	pairs     int
	seconds   float64
	seed      uint64
}

func parse(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	var workloads string
	fs.StringVar(&o.a, "a", "", "benchmark binary A, the baseline (the parent)")
	fs.StringVar(&o.b, "b", "", "benchmark binary B, the change (HEAD)")
	fs.StringVar(&workloads, "workloads", allWorkloads, "comma-separated workloads")
	fs.IntVar(&o.pairs, "pairs", 10, "alternated pairs of runs per workload")
	fs.Float64Var(&o.seconds, "seconds", 3, "measured seconds of one run (--seconds)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed of every run (--seed)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.a == "" || o.b == "":
		return o, errors.New("-a and -b: both binaries are required")
	case o.pairs < 1:
		return o, fmt.Errorf("-pairs %d: must be >= 1", o.pairs)
	case !(o.seconds > 0) || math.IsInf(o.seconds, 0):
		return o, fmt.Errorf("-seconds %v: must be a finite number > 0", o.seconds)
	}
	// A bare file name is a file here, not a command on $PATH.
	for _, bin := range []*string{&o.a, &o.b} {
		abs, err := filepath.Abs(*bin)
		if err != nil {
			return o, err
		}
		*bin = abs
	}
	for _, w := range strings.Split(workloads, ",") {
		if w = strings.TrimSpace(w); w != "" {
			o.workloads = append(o.workloads, w)
		}
	}
	if len(o.workloads) == 0 {
		return o, errors.New("-workloads: name at least one workload")
	}
	return o, nil
}

func run(w io.Writer, fs *flag.FlagSet, args []string) error {
	o, err := parse(fs, args)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "benchab: A %s, B %s; %d pairs of %g s runs per workload, seed %d, margin %g\n",
		o.a, o.b, o.pairs, o.seconds, o.seed, margin)
	ya, ca := yardstickClass(o.a)
	yb, cb := yardstickClass(o.b)
	fmt.Fprintf(w, "main.yardstick: A %s, B %s\n", ya, yb)
	if ca != cb {
		fmt.Fprintln(w, "  the two sides differ: corrected times are not comparable; judge by the raw ratios")
	}
	for _, wl := range o.workloads {
		var as, bs []sample
		for p := 0; p < o.pairs; p++ {
			// Pair p runs A first when p is even, B first when it is odd.
			first, second := o.a, o.b
			if p%2 == 1 {
				first, second = o.b, o.a
			}
			x, err := runOnce(first, wl, o.seconds, o.seed)
			if err != nil {
				return err
			}
			y, err := runOnce(second, wl, o.seconds, o.seed)
			if err != nil {
				return err
			}
			if p%2 == 1 {
				x, y = y, x
			}
			as, bs = append(as, x), append(bs, y)
		}
		report(w, wl, as, bs, o.seed)
	}
	return nil
}

// sample is what one run printed: its metric lines and its digest lines.
type sample struct {
	values  map[string]float64
	digests []string
}

// runOnce runs bin on one workload in driver mode and parses its output.
func runOnce(bin, workload string, seconds float64, seed uint64) (sample, error) {
	cmd := exec.Command(bin, "--workload", workload, "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--seed", strconv.FormatUint(seed, 10), "--trace", "0")
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("%s --workload %s: %v\n%s", bin, workload, err, stderr.String())
	}
	s := parseRun(out.String())
	for _, m := range endToEnd {
		if _, ok := s.values[m.name]; !ok {
			return sample{}, fmt.Errorf("%s --workload %s printed no %s line", bin, workload, m.name)
		}
	}
	return s, nil
}

// parseRun reads a driver-mode run's output: every `name value unit` line
// whose value parses as a number, and the text after each `# digest `.
func parseRun(out string) sample {
	s := sample{values: map[string]float64{}}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "# digest "); ok {
			s.digests = append(s.digests, d)
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			s.values[f[0]] = v
		}
	}
	return s
}

// ratio is m's ratio of b to a under key, oriented so that above 1 means b
// is better.
func ratio(m metric, key string, a, b sample) float64 {
	if m.higher {
		return b.values[key] / a.values[key]
	}
	return a.values[key] / b.values[key]
}

// summary is a set of per-pair ratios: their median, a bootstrap interval
// of the median and how many exceed 1.
type summary struct {
	median, lo, hi float64
	wins           int
}

// summarize takes the median of rs and a 95 % percentile-bootstrap interval
// of it from 2 000 resamples, drawn from a generator seeded by seed so that
// a report is reproducible from its ratios.
func summarize(rs []float64, seed uint64) summary {
	s := summary{median: median(rs)}
	for _, r := range rs {
		if r > 1 {
			s.wins++
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0xbe4cab))
	const reps = 2000
	meds := make([]float64, reps)
	re := make([]float64, len(rs))
	for i := range meds {
		for j := range re {
			re[j] = rs[rng.IntN(len(rs))]
		}
		meds[i] = median(re)
	}
	slices.Sort(meds)
	s.lo, s.hi = meds[reps*25/1000], meds[reps*975/1000-1]
	return s
}

// median returns the median of v (v is not modified); NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := slices.Clone(v)
	slices.Sort(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// verdict places an interval against 1 ± margin.
func verdict(s summary) string {
	switch {
	case s.lo > 1+margin:
		return "better"
	case s.hi < 1-margin:
		return "worse"
	}
	return "within"
}

// report writes one workload's comparison.
func report(w io.Writer, workload string, as, bs []sample, seed uint64) {
	n := len(as)
	fmt.Fprintf(w, "\n== %s: %d pairs (A first in pairs 1, 3, …); ratio > 1 means B is better\n", workload, n)
	fmt.Fprintf(w, "%-17s %-28s %-28s %s\n", "metric", "raw median [95% CI] wins", "corrected median [95% CI] wins", "verdict (raw/corrected)")
	perPair := make([][]string, n)
	for _, m := range endToEnd {
		raw := m.raw
		if raw == "" {
			raw = m.name
		}
		rr, cr := make([]float64, n), make([]float64, n)
		for p := range as {
			rr[p], cr[p] = ratio(m, raw, as[p], bs[p]), ratio(m, m.name, as[p], bs[p])
			cell := fmt.Sprintf("%.3f", cr[p])
			if m.raw != "" {
				cell = fmt.Sprintf("%.3f/%.3f", rr[p], cr[p])
			}
			perPair[p] = append(perPair[p], cell)
		}
		rs, cs := summarize(rr, seed), summarize(cr, seed)
		fmt.Fprintf(w, "%-17s %-28s %-28s %s/%s\n", m.name, fmtSummary(rs, n), fmtSummary(cs, n), verdict(rs), verdict(cs))
	}
	fmt.Fprintln(w, "per pair (raw/corrected where a correction applies), metrics in the order above:")
	for p, cells := range perPair {
		fmt.Fprintf(w, "  pair %2d: %s\n", p+1, strings.Join(cells, " "))
	}

	digests, scored, digestA := 0, 0, "none"
	for p := range as {
		if slices.Equal(as[p].digests, bs[p].digests) {
			digests++
		}
		same := true
		for _, name := range scores {
			same = same && as[p].values[name] == bs[p].values[name]
		}
		if same {
			scored++
		}
	}
	if len(as[0].digests) > 0 {
		digestA, _, _ = strings.Cut(as[0].digests[0], " ")
	}
	fmt.Fprintf(w, "digests equal in %d of %d pairs (A's first: %s); scores equal in %d of %d pairs\n", digests, n, digestA, scored, n)
	for _, side := range []struct {
		name string
		runs []sample
	}{{"A", as}, {"B", bs}} {
		heap, speed, failed := column(side.runs, "live_heap_mb"), column(side.runs, "host_speed"), column(side.runs, "failed_frac")
		fmt.Fprintf(w, "%s: live_heap_mb %.4f–%.4f (spread %.2f %%), host_speed median %.3f, failed_frac max %g\n",
			side.name, slices.Min(heap), slices.Max(heap), 100*(slices.Max(heap)/slices.Min(heap)-1), median(speed), slices.Max(failed))
	}
}

// column returns every run's value of name.
func column(runs []sample, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.values[name]
	}
	return v
}

func fmtSummary(s summary, n int) string {
	return fmt.Sprintf("%.3f [%.3f, %.3f] %d/%d", s.median, s.lo, s.hi, s.wins, n)
}

// yardstickClass reports where bin's linker put main.yardstick, read with
// `go tool nm`: its address and 64-byte class, or why it could not, and the
// class alone (-1 when unknown).
func yardstickClass(bin string) (string, int) {
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		return fmt.Sprintf("unknown (go tool nm: %v)", err), -1
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[2] == "main.yardstick" {
			addr, err := strconv.ParseUint(f[0], 16, 64)
			if err != nil {
				break
			}
			return fmt.Sprintf("0x%x (%d mod 64)", addr, addr%64), int(addr % 64)
		}
	}
	return "unknown (no main.yardstick symbol)", -1
}
