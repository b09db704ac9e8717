package stack

import (
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satori/internal/control"
	"satori/internal/rdt"
)

// build parses a command line the way cmd/satori and cmd/satorid do and
// builds its stack for a run of ticks. A deadline guards it: an input the
// assembly cannot hold (a fault script with a 300-million repeat, before
// the parser bounded it) fails the test instead of hanging it.
func build(t *testing.T, ticks int, args ...string) (*control.Loop, error) {
	t.Helper()
	var spec Spec
	fs := flag.NewFlagSet("stack", flag.ContinueOnError)
	spec.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	type built struct {
		loop *control.Loop
		err  error
	}
	done := make(chan built, 1)
	go func() {
		loop, err := spec.Build(ticks)
		done <- built{loop, err}
	}()
	select {
	case b := <-done:
		return b.loop, b.err
	case <-time.After(10 * time.Second):
		t.Fatalf("Build %q still running after 10 s", args)
		return nil, nil
	}
}

// scratchRoot is a resctrl tree on a temp directory; closids > 0 makes it
// advertise that many classes of service (one is the root group's).
func scratchRoot(t *testing.T, closids string) string {
	t.Helper()
	root := t.TempDir()
	if closids != "" {
		if err := os.MkdirAll(filepath.Join(root, "info", "L3"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "info", "L3", "num_closids"), []byte(closids+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// reconcile checks the loop's health counters against the injector's
// ground truth and returns the latter. Every injected apply failure is
// either retried in-tick or ends the tick as a rejected apply.
func reconcile(t *testing.T, loop *control.Loop) rdt.FaultCounts {
	t.Helper()
	fi, ok := rdt.As[*rdt.FaultInjector](loop.Platform())
	if !ok {
		t.Fatal("-fault built no injector")
	}
	c, h := fi.Counts(), loop.Health()
	if h.BadSamples != c.SampleNaNs+c.SampleNegatives || h.SampleErrors != c.SampleErrors ||
		h.Retries+h.RejectedApplies != c.ApplyErrors {
		t.Errorf("health %+v does not reconcile with injected %+v", h, c)
	}
	if !h.Healthy() {
		t.Errorf("not healthy at tick %d: %+v", h.Ticks, h)
	}
	return c
}

const soakScript = "sample:nan@50,apply:error@100x3,sample:error@150"

// TestStacks runs, inside go test, what CI's smokes of cmd/satori and
// cmd/satorid used to script around the binaries — same command lines,
// asserted on values instead of grepped from stdout — plus the stacks
// only one assembly can build (faults over resctrl).
func TestStacks(t *testing.T) {
	plain, budgeted := scratchRoot(t, ""), scratchRoot(t, "4")
	nonEmpty := func(t *testing.T, root, file string) {
		t.Helper()
		if blob, err := os.ReadFile(filepath.Join(root, file)); err != nil || len(blob) == 0 {
			t.Errorf("%s: %d bytes, %v", file, len(blob), err)
		}
	}
	lcMix := "memcached-lc,nginx-lc,canneal,fluidanimate,streamcluster"
	for _, c := range []struct {
		name  string
		ticks int
		args  []string
		// check inspects the loop after the run; refused, when set, says
		// Build must fail and inspects how.
		check   func(*testing.T, *control.Loop)
		refused func(*testing.T, error)
	}{
		// Resctrl smoke: scratch root, 50 ticks, the groups are on disk.
		{name: "resctrl", ticks: 50, args: []string{"-backend", "resctrl", "-resctrl-root", plain, "-suite", "parsec"},
			check: func(t *testing.T, loop *control.Loop) {
				nonEmpty(t, plain, "satori-job0/schemata")
				nonEmpty(t, plain, "satori-job4/cpus_list")
			}},
		// Any registry name runs there except the oracles.
		{name: "resctrl/clite", ticks: 20, args: []string{"-backend", "resctrl", "-resctrl-root", scratchRoot(t, ""), "-suite", "parsec", "-policy", "clite"}},
		{name: "resctrl/satori-slo", ticks: 20, args: []string{"-backend", "resctrl", "-resctrl-root", scratchRoot(t, ""), "-suite", "parsec", "-policy", "satori-slo"}},
		{name: "resctrl/balanced-oracle", args: []string{"-backend", "resctrl", "-resctrl-root", scratchRoot(t, ""), "-suite", "parsec", "-policy", "balanced-oracle"},
			refused: func(t *testing.T, err error) {
				if msg := err.Error(); !strings.Contains(msg, `"balanced-oracle"`) || !strings.Contains(msg, "simulator") {
					t.Errorf("refusal does not name the policy and the simulator it needs: %v", err)
				}
			}},
		// Clustered smoke: 5 jobs, 4 CLOS of which 3 usable.
		{name: "clos/per-job", args: []string{"-backend", "resctrl", "-resctrl-root", budgeted, "-suite", "parsec"},
			refused: func(t *testing.T, err error) {
				var lim *rdt.CLOSLimitError
				if !errors.As(err, &lim) || lim.Need != 5 || lim.Have != 3 {
					t.Errorf("per-job on 3 usable CLOS = %v, want *rdt.CLOSLimitError 5 > 3", err)
				}
			}},
		{name: "clos/clustered", ticks: 50, args: []string{"-backend", "resctrl", "-resctrl-root", budgeted, "-suite", "parsec", "-policy", "satori-clustered", "-cluster-k", "3"},
			check: func(t *testing.T, loop *control.Loop) {
				rp, _ := rdt.As[*rdt.ResctrlPlatform](loop.Platform())
				if g := rp.Grouping(); g == nil || g.Jobs() != 5 || g.Clusters != 3 {
					t.Errorf("grouping = %v, want 5 jobs on 3 clusters", g)
				}
				nonEmpty(t, budgeted, "satori-job2/schemata")
				if _, err := os.Stat(filepath.Join(budgeted, "satori-job3")); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("satori-job3 exists beyond the 3-group budget (stat: %v)", err)
				}
			}},
		// SLO smoke: LC jobs, violation-driven goal switching.
		{name: "slo", ticks: 300, args: []string{"-workloads", lcMix, "-policy", "satori-slo", "-slo-goal-switch"},
			check: func(t *testing.T, loop *control.Loop) {
				if s := loop.Summary(); s.SLOViolatedTicks == 0 || s.GoalSwitches == 0 {
					t.Errorf("no SLO activity on the LC mix: %s", s)
				}
				if h := loop.Health(); h.Ticks != 300 || !h.Healthy() {
					t.Errorf("health = %+v, want healthy at 300", h)
				}
			}},
		// ...and a batch-only run renders no SLO field at all.
		{name: "batch", ticks: 100, args: []string{"-suite", "parsec", "-mix", "0"},
			check: func(t *testing.T, loop *control.Loop) {
				if s := loop.Summary().String(); strings.Contains(s, "slo-") {
					t.Errorf("batch-only summary renders an SLO field: %s", s)
				}
			}},
		// Soak smoke: scripted faults absorbed, counters reconcile.
		{name: "soak", ticks: 300, args: []string{"-suite", "parsec", "-mix", "0", "-fault", soakScript},
			check: func(t *testing.T, loop *control.Loop) {
				if c := reconcile(t, loop); c.ApplyErrors != 3 || c.SampleErrors != 1 || c.SampleNaNs != 1 || c.Total() != 5 {
					t.Errorf("injected %+v, want apply=3 sample=1 nan=1", c)
				}
			}},
		// Faults off: no injector, the resilience layers inert, and the
		// run reproducible.
		{name: "clean", ticks: 300, args: []string{"-suite", "parsec", "-mix", "0"},
			check: func(t *testing.T, loop *control.Loop) {
				if _, ok := rdt.As[*rdt.FaultInjector](loop.Platform()); ok {
					t.Error("an injector without -fault")
				}
				if s := loop.Summary(); s.Retries != 0 || strings.Contains(s.String(), "retries") {
					t.Errorf("retries on a fault-free run: %s", s)
				}
				again, err := build(t, 300, "-suite", "parsec", "-mix", "0")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := again.Run(300); err != nil {
					t.Fatal(err)
				}
				if a, b := loop.Summary(), again.Summary(); a != b {
					t.Errorf("two clean runs differ:\n%+v\n%+v", a, b)
				}
			}},
		// Clustered-under-faults smoke: grouping, churn capability and
		// injector share one platform.
		{name: "clustered-soak", ticks: 300, args: []string{"-suite", "parsec", "-mix", "0", "-policy", "satori-clustered", "-cluster-k", "3", "-fault", "apply:error@100x3,sample:error@150"},
			check: func(t *testing.T, loop *control.Loop) {
				if c := reconcile(t, loop); c.ApplyErrors != 3 {
					t.Errorf("injected %+v, want apply=3", c)
				}
			}},
		// New with one assembly: the soak script over the resctrl backend.
		{name: "resctrl-soak", ticks: 300, args: []string{"-backend", "resctrl", "-resctrl-root", scratchRoot(t, ""), "-suite", "parsec", "-fault", soakScript},
			check: func(t *testing.T, loop *control.Loop) {
				if c := reconcile(t, loop); c.ApplyErrors != 3 || c.SampleErrors != 1 || c.SampleNaNs != 1 {
					t.Errorf("injected %+v, want apply=3 sample=1 nan=1", c)
				}
				if _, ok := rdt.As[*rdt.ResctrlPlatform](loop.Platform()); !ok {
					t.Error("no resctrl platform under the injector")
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			loop, err := build(t, c.ticks, c.args...)
			if c.refused != nil {
				if err == nil {
					t.Fatal("Build succeeded")
				}
				c.refused(t, err)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := loop.Run(c.ticks); err != nil {
				t.Fatal(err)
			}
			if got := loop.Summary().Ticks; got != c.ticks {
				t.Fatalf("ran %d ticks, want %d", got, c.ticks)
			}
			if c.check != nil {
				c.check(t, loop)
			}
		})
	}
}

// TestBuildRefusesBadInputByName: whatever enters through a flag is
// refused where it enters, with a message naming the flag's value — not
// accepted and run (the NaN trace, the trailing garbage), not reported
// from three layers down (the width mismatch), not hung on (the repeat).
func TestBuildRefusesBadInputByName(t *testing.T) {
	dir := t.TempDir()
	file := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const oneProfile = `[{"name":"a","phases":[{"name":"p","instructions":1e9,"ips_peak":2e9,"serial_frac":0.1,"mpi_max":0.01,"mpi_min":0.001,"ways_half":2,"mem_stall_cost":100}]}]`
	if _, err := build(t, 1, "-profiles", file("profiles.json", oneProfile)); err != nil {
		t.Fatalf("the well-formed profile file is refused: %v", err)
	}
	three := []string{"-workloads", "canneal,swaptions,streamcluster", "-backend", "resctrl", "-resctrl-root", dir}
	type refusal struct {
		name string
		args []string
		want []string // substrings of the error
	}
	cases := []refusal{
		{"NaN baseline", append(three, "-trace", file("nan.trace", "NaN,2e9,2e9\n1e9,1e9,1e9\n")), []string{"nan.trace", "line 1", `"NaN"`}},
		{"negative sample", append(three, "-trace", file("neg.trace", "# capture\n2e9,2e9,2e9\n1e9,-1,1e9\n")), []string{"neg.trace", "line 3", `"-1"`}},
		{"trace narrower than the job set", append(three, "-trace", file("two.trace", "2e9,2e9\n1e9,1e9\n")), []string{"two.trace", "2 jobs", "has 3"}},
		{"missing trace", append(three, "-trace", filepath.Join(dir, "absent.trace")), []string{"absent.trace", "omit -trace"}},
		{"unbounded repeat", []string{"-suite", "parsec", "-fault", "apply:error@1x300000000"}, []string{"apply:error@1x300000000", "100000"}},
		{"trailing garbage", []string{"-profiles", file("garbage.json", oneProfile+"\nTHIS IS NOT JSON {{{\n")}, []string{"garbage.json", "after the profile array"}},
		{"no resctrl root", []string{"-suite", "parsec", "-backend", "resctrl"}, []string{"-resctrl-root"}},
		{"absent resctrl root", []string{"-suite", "parsec", "-backend", "resctrl", "-resctrl-root", filepath.Join(dir, "absent")}, []string{"does not exist", "mktemp"}},
		{"resctrl root is a file", []string{"-suite", "parsec", "-backend", "resctrl", "-resctrl-root", file("plain", "")}, []string{"plain", "not a directory"}},
		{"unknown backend", []string{"-suite", "parsec", "-backend", "pqos"}, []string{`"pqos"`, "sim, resctrl"}},
		{"negative power", []string{"-suite", "parsec", "-power", "-3"}, []string{"-power -3", ">= 0"}},
		{"negative cluster-k", []string{"-suite", "parsec", "-cluster-k", "-2"}, []string{"-cluster-k -2", ">= 0"}},
	}
	// sysfs takes no mkdir from anyone, root included: the one unwritable
	// directory a test can count on. Nothing is created there.
	if info, err := os.Stat("/sys/kernel"); err == nil && info.IsDir() {
		cases = append(cases, refusal{"unwritable resctrl root", []string{"-suite", "parsec", "-backend", "resctrl", "-resctrl-root", "/sys/kernel"}, []string{"/sys/kernel is not writable", "privileged"}})
	}
	for _, c := range cases {
		_, err := build(t, 20, c.args...)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not mention %q: %v", c.name, want, err)
			}
		}
	}
}

// TestTicks: a run length in seconds becomes the nearest tick count, where
// truncating the quotient lost one tick to rounding; a length that is not a
// finite number of seconds >= 0, or overflows an int, is refused by flag
// name (NaN and -5 used to run 0 ticks and exit 0).
func TestTicks(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		want    int
	}{{0, 0}, {0.1, 1}, {0.3, 3}, {0.7, 7}, {1.2, 12}, {2.3, 23}, {60, 600}} {
		if got, err := Ticks("seconds", c.seconds); err != nil || got != c.want {
			t.Errorf("Ticks(%v) = %d, %v; want %d", c.seconds, got, err, c.want)
		}
	}
	for _, seconds := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e300} {
		got, err := Ticks("warmup", seconds)
		if err == nil {
			t.Errorf("Ticks(%v) = %d, accepted", seconds, got)
		} else if !strings.HasPrefix(err.Error(), "-warmup ") {
			t.Errorf("Ticks(%v): error does not name the flag: %v", seconds, err)
		}
	}
}
