package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Suite mode: every workload once per set, each in a child process of its
// own (one at a time, so a workload's memory and scheduler are its alone),
// then a comparison of the sets.

type childRun struct {
	out    output
	digest string
	text   string
}

// runChild runs one workload in a child process and parses its last line.
func runChild(self, workload string, seed uint64, seconds, scale float64, trace int, outDir string) (*childRun, error) {
	args := []string{
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
	}
	if outDir != "" && trace == 1 {
		args = append(args, "--out", outDir)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	text := strings.TrimRight(string(stdout), "\n")
	cut := strings.LastIndexByte(text, '\n')
	run := &childRun{text: text[:max(cut, 0)]}
	if err := json.Unmarshal([]byte(text[cut+1:]), &run.out); err != nil {
		return nil, fmt.Errorf("%s (trace %d): last line is not a result: %w", workload, trace, err)
	}
	for _, line := range strings.Split(run.text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# digest "); ok {
			run.digest = rest
		}
	}
	return run, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}

func runSuiteMode(seed uint64, seconds, scale float64, sets int, traced bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# satori benchmark: seed=%d seconds=%g scale=%g sets=%d commit=%s\n", seed, seconds, scale, sets, gitCommit())
	fmt.Printf("# host GOMAXPROCS=%d NumCPU=%d %s %s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	bad := 0
	note := func(format string, args ...any) {
		bad++
		fmt.Printf("FAIL "+format+"\n", args...)
	}

	// runs[set][workload index]; sets interleave the workloads round-robin
	// so that a drift of the host spreads over all of them.
	runs := make([][]*childRun, sets)
	for s := range runs {
		for _, w := range allWorkloads {
			run, err := runChild(self, w.name, seed, seconds, scale, 0, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Printf("\n## set %d\n%s\n", s+1, run.text)
			if !run.out.Correct || run.out.Failed > 0 {
				note("%s set %d: correct=%v failed=%d of %d", w.name, s+1, run.out.Correct, run.out.Failed, run.out.Attempted)
			}
			runs[s] = append(runs[s], run)
		}
	}
	if traced {
		for _, w := range allWorkloads {
			run, err := runChild(self, w.name, seed, seconds, scale, 1, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			fmt.Printf("\n## traced\n%s\n", run.text)
			if !run.out.Correct || run.out.Failed > 0 {
				note("%s traced: correct=%v failed=%d of %d", w.name, run.out.Correct, run.out.Failed, run.out.Attempted)
			}
		}
	}

	// Summary: every end-to-end metric of every workload, one column per
	// set. Between the first set and each later one a metric may get
	// worse by its bound at most; what is exact per seed must repeat
	// bit for bit.
	fmt.Printf("\n## summary (sets side by side; worse = share by which the last set is worse than the first)\n")
	for wi, w := range allWorkloads {
		fmt.Printf("%s\n", w.name)
		for _, d := range endToEnd {
			var cols []string
			for s := range runs {
				cols = append(cols, strconv.FormatFloat(runs[s][wi].out.Metrics[d.name].Value, 'g', 6, 64))
			}
			line := fmt.Sprintf("  %-18s %-6s %s", d.name, d.unit, strings.Join(cols, "  "))
			first := runs[0][wi].out.Metrics[d.name].Value
			for s := 1; s < sets; s++ {
				v := runs[s][wi].out.Metrics[d.name].Value
				worse := (first - v) / first
				if d.better == "lower" {
					worse = -worse
				}
				if s == sets-1 {
					line += fmt.Sprintf("   worse %+.1f%% (bound %.0f%%)", 100*worse, 100*d.bound)
				}
				if worse > d.bound {
					note("%s %s: set %d is %.1f%% worse than set 1, bound %.0f%%", w.name, d.name, s+1, 100*worse, 100*d.bound)
				}
				exact := w.deterministic && strings.HasSuffix(d.name, "_score")
				if exact && v != first {
					note("%s %s: %v in set %d, %v in set 1 at the same seed", w.name, d.name, v, s+1, first)
				}
			}
			fmt.Println(line)
		}
		for s := 1; s < sets; s++ {
			if w.deterministic && runs[s][wi].digest != runs[0][wi].digest {
				note("%s: digest %q in set %d, %q in set 1 at the same seed", w.name, runs[s][wi].digest, s+1, runs[0][wi].digest)
			}
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d checks failed\n", bad)
		return 1
	}
	fmt.Printf("\nall checks passed\n")
	return 0
}
