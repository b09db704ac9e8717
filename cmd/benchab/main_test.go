package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// driverOutput is what a driver-mode run prints, in the benchmark's shape,
// with ticks_per_s and its raw twin at the given values.
func driverOutput(ticks, raw float64, digest string) string {
	return fmt.Sprintf(`# workload node_steady (untraced): why
# host GOMAXPROCS=2 NumCPU=2 go1.24.0 linux/amd64 scale=1 seed=1
# round 1: setup 0.030 s (raw 0.060), 100 ops, rate 1e+05 /s (raw 5e+04), op p50 9.0 us, speed 0.500
# digest %s (over 1 rounds; round 1: %s)
# samples: 1 rounds (set-ups), 100 operations, 1 rate chunks
raw_setup_s 0.06 s
raw_ticks_per_s %g 1/s
raw_op_p50_us 20 us
host_speed 0.5 ratio
peak_rss_mb 15 MB
setup_s 0.03 s
ticks_per_s %g 1/s
op_p50_us 10 us
objective_score 0.6 ratio
throughput_score 0.3 ratio
fairness_score 0.9 ratio
live_heap_mb 2.5 MB
failed_frac 0 ratio
{"correct":true,"attempted":100,"failed":0,"metrics":{}}
`, digest, digest, raw, ticks)
}

// TestParseRunReadsMetricAndDigestLines: every `name value unit` line is a
// value, comment lines and the JSON line are not, and the digest line's
// text is kept whole.
func TestParseRunReadsMetricAndDigestLines(t *testing.T) {
	s := parseRun(driverOutput(1e5, 5e4, "abc"))
	for name, want := range map[string]float64{"ticks_per_s": 1e5, "raw_ticks_per_s": 5e4, "host_speed": 0.5, "live_heap_mb": 2.5, "failed_frac": 0} {
		if got, ok := s.values[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if len(s.values) != 13 {
		t.Errorf("%d values parsed, want the 13 metric lines: %v", len(s.values), s.values)
	}
	if len(s.digests) != 1 || s.digests[0] != "abc (over 1 rounds; round 1: abc)" {
		t.Errorf("digests %q", s.digests)
	}
}

// TestRatioOrientation: above 1 means B is better, whichever way the metric
// points.
func TestRatioOrientation(t *testing.T) {
	a := sample{values: map[string]float64{"ticks_per_s": 100, "op_p50_us": 10}}
	b := sample{values: map[string]float64{"ticks_per_s": 120, "op_p50_us": 8}}
	if r := ratio(endToEnd[1], "ticks_per_s", a, b); r != 1.2 {
		t.Errorf("ticks_per_s ratio %v, want 1.2", r)
	}
	if r := ratio(endToEnd[2], "op_p50_us", a, b); r != 1.25 {
		t.Errorf("op_p50_us ratio %v, want 1.25", r)
	}
}

// TestSummarizeAndVerdict: the interval holds the median, is reproducible,
// collapses on equal ratios, and places itself against 1 ± margin.
func TestSummarizeAndVerdict(t *testing.T) {
	rs := []float64{1.10, 1.25, 1.19, 1.21, 1.30, 1.15, 1.22, 1.18, 1.27, 1.20}
	s := summarize(rs, 1)
	if s.median != 1.205 || !(s.lo <= s.median && s.median <= s.hi) || s.wins != 10 {
		t.Errorf("summary %+v", s)
	}
	if again := summarize(rs, 1); again != s {
		t.Errorf("summary not reproducible: %+v, then %+v", s, again)
	}
	if flat := summarize([]float64{1, 1, 1}, 1); flat.lo != 1 || flat.hi != 1 || flat.wins != 0 {
		t.Errorf("equal ratios: %+v", flat)
	}
	for _, c := range []struct {
		s    summary
		want string
	}{
		{summary{lo: 1.06, hi: 1.3}, "better"},
		{summary{lo: 1.04, hi: 1.3}, "within"},
		{summary{lo: 0.8, hi: 0.94}, "worse"},
		{summary{lo: 0.8, hi: 1.1}, "within"},
	} {
		if got := verdict(c.s); got != c.want {
			t.Errorf("verdict(%+v) = %s, want %s", c.s, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestBadFlagsRefused: each bad value is refused by flag name.
func TestBadFlagsRefused(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-a", []string{"-b", "x"}},
		{"-pairs", []string{"-a", "x", "-b", "y", "-pairs", "0"}},
		{"-seconds", []string{"-a", "x", "-b", "y", "-seconds", "0"}},
		{"-seconds", []string{"-a", "x", "-b", "y", "-seconds", "NaN"}},
		{"-workloads", []string{"-a", "x", "-b", "y", "-workloads", ","}},
	} {
		_, err := parse(flag.NewFlagSet("benchab", flag.ContinueOnError), c.args)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag) {
			t.Errorf("%v: %v, want a refusal naming %s", c.args, err, c.flag)
		}
	}
}

// TestRunAlternatesAndReports drives two stand-in binaries that print a
// fixed driver-mode output and log the order they ran in: pairs alternate
// which side runs first, every run gets the asked-for flags, and the report
// shows B's 1.2× and equal digests and scores. The binaries are named by
// bare file names in the working directory, which exec alone would look
// up on $PATH.
func TestRunAlternatesAndReports(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skip("no sh to run the stand-in binaries")
	}
	dir := t.TempDir()
	log := filepath.Join(dir, "order.log")
	stub := func(name string, ticks float64) {
		path := filepath.Join(dir, name)
		out := filepath.Join(dir, name+".out")
		if err := os.WriteFile(out, []byte(driverOutput(ticks, ticks/2, "d1")), 0o644); err != nil {
			t.Fatal(err)
		}
		script := fmt.Sprintf("#!%s\necho %s \"$@\" >> %s\ncat %s\n", sh, name, log, out)
		if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	stub("A", 1e5)
	stub("B", 1.2e5)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) }) // the directory is the test's own; nothing to report
	var out bytes.Buffer
	fs := flag.NewFlagSet("benchab", flag.ContinueOnError)
	if err := run(&out, fs, []string{"-a", "A", "-b", "B", "-workloads", "node_steady", "-pairs", "3", "-seconds", "0.5", "-seed", "7"}); err != nil {
		t.Fatal(err)
	}
	order, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	var sides []string
	for _, line := range strings.Split(strings.TrimSpace(string(order)), "\n") {
		f := strings.Fields(line)
		sides = append(sides, f[0])
		if got := strings.Join(f[1:], " "); got != "--workload node_steady --seconds 0.5 --seed 7 --trace 0" {
			t.Errorf("a run got %q", got)
		}
	}
	if got := strings.Join(sides, ""); got != "ABBAAB" {
		t.Errorf("run order %s, want ABBAAB", got)
	}
	report := out.String()
	for _, want := range []string{
		"ticks_per_s       1.200 [1.200, 1.200] 3/3",
		"digests equal in 3 of 3 pairs (A's first: d1); scores equal in 3 of 3 pairs",
		"main.yardstick: A unknown",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}
