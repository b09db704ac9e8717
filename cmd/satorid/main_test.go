package main

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"satori/internal/server"
	"satori/internal/stack"
)

// daemon builds the server the way main does: the stack flags parsed
// from a command line, then the daemon's own three values (-tick 0).
func daemon(t *testing.T, maxTicks, sloUnhealthy int, args ...string) *server.Server {
	t.Helper()
	var spec stack.Spec
	fs := flag.NewFlagSet("satorid", flag.ContinueOnError)
	spec.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	srv, err := buildServer(spec, 0, maxTicks, sloUnhealthy)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestTickZeroFreeRuns: -tick 0 is documented as free-run. It used to
// reach server.Options as a zero TickEvery, which selects the 100 ms
// default, so 50 ticks took 5 s of wall clock.
func TestTickZeroFreeRuns(t *testing.T) {
	srv := daemon(t, 50, 0, "-suite", "parsec")
	start := time.Now()
	if err := srv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ticks := srv.Loop().Summary().Ticks; ticks != 50 {
		t.Fatalf("ran %d ticks, want 50", ticks)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("50 free-run ticks took %v; at the 100 ms cadence they take 5 s", took)
	}
}

// TestNegativeDaemonFlagsRefused: server.Run reads a MaxTicks ≤ 0 as
// unbounded and a negative TickEvery as free-run, so -max-ticks -1 used to
// run until signaled and -tick -1s free-ran silently.
func TestNegativeDaemonFlagsRefused(t *testing.T) {
	for _, c := range []struct {
		flag                   string
		tick                   time.Duration
		maxTicks, sloUnhealthy int
	}{
		{"-tick", -time.Second, 10, 0},
		{"-tick", -1, 10, 0},
		{"-max-ticks", 0, -1, 0},
		{"-slo-unhealthy-after", 0, 10, -5},
	} {
		srv, err := buildServer(stack.Spec{Suite: "parsec", Policy: "static", Backend: "sim"}, c.tick, c.maxTicks, c.sloUnhealthy)
		if err == nil {
			t.Errorf("%s: accepted (tick %v, max-ticks %d, slo-unhealthy-after %d)", c.flag, c.tick, c.maxTicks, c.sloUnhealthy)
			continue
		}
		if srv != nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: error does not name the flag: %v", c.flag, err)
		}
	}
}

// TestDaemonOverResctrl: the daemon on the deployment backend — the
// combination no binary could build while each main had its own assembly.
// It ticks, the control groups are on disk, reads are served, and churn is
// answered 501: a resctrl job set is fixed, and that is "not implemented
// here", not a conflict (server.churnErrCode's first branch).
func TestDaemonOverResctrl(t *testing.T) {
	root := t.TempDir()
	srv := daemon(t, 100, 0, "-backend", "resctrl", "-resctrl-root", root, "-suite", "parsec")
	if err := srv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ticks := srv.Loop().Summary().Ticks; ticks != 100 {
		t.Fatalf("ran %d ticks, want 100", ticks)
	}
	for _, file := range []string{"satori-job0/schemata", "satori-job4/cpus_list"} {
		if blob, err := os.ReadFile(filepath.Join(root, file)); err != nil || len(blob) == 0 {
			t.Errorf("%s: %d bytes, %v", file, len(blob), err)
		}
	}
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/status", "", http.StatusOK},
		{"POST", "/jobs", `{"workload":"swaptions"}`, http.StatusNotImplemented},
		{"DELETE", "/jobs/0", "", http.StatusNotImplemented},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s %s = %d, want %d (%s)", c.method, c.path, rec.Code, c.want, strings.TrimSpace(rec.Body.String()))
		}
	}
	if jobs := srv.Loop().NumJobs(); jobs != 5 {
		t.Errorf("refused churn left %d jobs, want 5", jobs)
	}
}

// TestSLOUnhealthyAfter: with -slo-unhealthy-after 20, /healthz answers 503
// "slo-violation" once the LC mix has violated its SLO for 20 consecutive
// ticks, and 200 at the same tick without the flag.
func TestSLOUnhealthyAfter(t *testing.T) {
	args := []string{"-workloads", "memcached-lc,nginx-lc,canneal,fluidanimate,streamcluster", "-policy", "satori-slo", "-slo-goal-switch"}
	gated, plain := daemon(t, 300, 20, args...), daemon(t, 300, 0, args...)
	healthz := func(srv *server.Server) (int, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code, rec.Body.String()
	}
	for tick := 1; tick <= 300; tick++ {
		for _, srv := range []*server.Server{gated, plain} {
			if _, err := srv.Loop().Step(); err != nil {
				t.Fatal(err)
			}
		}
		if gated.Loop().SLOViolationRun() < 20 {
			continue
		}
		if code, body := healthz(gated); code != http.StatusServiceUnavailable || !strings.Contains(body, `"slo-violation"`) {
			t.Errorf("tick %d, violation run %d: /healthz = %d %s, want 503 slo-violation", tick, gated.Loop().SLOViolationRun(), code, body)
		}
		if code, body := healthz(plain); code != http.StatusOK {
			t.Errorf("tick %d without the flag: /healthz = %d %s, want 200", tick, code, body)
		}
		return
	}
	t.Fatal("no 20-tick SLO violation in 300 ticks of the LC mix")
}
