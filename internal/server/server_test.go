package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"satori/internal/control"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// newTestServer builds a daemon stack over the simulated backend:
// 3 PARSEC jobs, static policy, optional fault script, free-running
// driver capped at maxTicks.
func newTestServer(t *testing.T, script *rdt.FaultScript, maxTicks int) *Server {
	t.Helper()
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var platform rdt.Platform
	platform, err = rdt.NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	if script != nil {
		script.Sleep = func(time.Duration) {}
		platform, err = rdt.NewFaultInjector(platform, *script)
		if err != nil {
			t.Fatal(err)
		}
	}
	loop, err := control.New(control.Options{
		Platform: platform,
		Policy:   func(rdt.Platform) (policy.Policy, error) { return policy.Static{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Loop: loop, TickEvery: -1, MaxTicks: maxTicks})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantCode int, into any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status = %d, want %d", path, resp.StatusCode, wantCode)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any, wantCode int, into any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("%s %s: status = %d, want %d (body: %s)", method, path, resp.StatusCode, wantCode, msg.String())
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
}

// The API's full request lifecycle: health, status, churn, goal
// reconfiguration, and error mapping — exercised without the tick
// driver running (every mutation is valid between ticks).
func TestServerAPI(t *testing.T) {
	srv := newTestServer(t, nil, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var health HealthResponse
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if health.Status != "ok" || !health.Health.Healthy() {
		t.Errorf("fresh daemon health = %+v, want ok", health)
	}

	var status StatusResponse
	getJSON(t, ts, "/status", http.StatusOK, &status)
	if len(status.Jobs) != 3 || status.Policy != "static" {
		t.Errorf("status = %+v, want 3 jobs and static policy", status)
	}
	if status.Throughput != "sum-ips" || status.Fairness != "jain" {
		t.Errorf("default goal = %s + %s, want sum-ips + jain", status.Throughput, status.Fairness)
	}

	// Submit a workload by name; the slot it lands in comes back.
	var added struct {
		Jobs []string `json:"jobs"`
		Slot int      `json:"slot"`
	}
	doJSON(t, ts, "POST", "/jobs", AddJobRequest{Workload: "streamcluster"}, http.StatusOK, &added)
	if added.Slot != 3 || len(added.Jobs) != 4 || added.Jobs[3] != "streamcluster" {
		t.Errorf("add = %+v, want streamcluster in slot 3", added)
	}

	// Unknown workloads and malformed bodies are 400s.
	doJSON(t, ts, "POST", "/jobs", AddJobRequest{Workload: "no-such-benchmark"}, http.StatusBadRequest, nil)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", resp.StatusCode)
	}

	// Evict the job we just added; evicting an empty slot is a conflict.
	var removed struct {
		Jobs    []string `json:"jobs"`
		Removed string   `json:"removed"`
	}
	doJSON(t, ts, "DELETE", "/jobs/3", nil, http.StatusOK, &removed)
	if removed.Removed != "streamcluster" || len(removed.Jobs) != 3 {
		t.Errorf("remove = %+v, want streamcluster evicted", removed)
	}
	doJSON(t, ts, "DELETE", "/jobs/9", nil, http.StatusConflict, nil)
	doJSON(t, ts, "DELETE", "/jobs/x", nil, http.StatusBadRequest, nil)

	// Goal reconfiguration: partial updates keep the other formula.
	var goal map[string]string
	doJSON(t, ts, "POST", "/goal", GoalRequest{Fairness: "one-minus-cov"}, http.StatusOK, &goal)
	if goal["throughput"] != "sum-ips" || goal["fairness"] != "one-minus-cov" {
		t.Errorf("goal = %v, want sum-ips + one-minus-cov", goal)
	}
	doJSON(t, ts, "POST", "/goal", GoalRequest{Throughput: "bogus"}, http.StatusBadRequest, nil)

	getJSON(t, ts, "/status", http.StatusOK, &status)
	if status.Fairness != "one-minus-cov" {
		t.Errorf("status after goal change: fairness = %s, want one-minus-cov", status.Fairness)
	}
}

// The driver honors MaxTicks, the stream delivers per-tick NDJSON, and
// /status reflects the completed run.
func TestServerRunAndStream(t *testing.T) {
	const ticks = 40
	srv := newTestServer(t, nil, ticks)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Subscribe before the driver starts so no tick is missed.
	streamCtx, cancelStream := context.WithCancel(context.Background())
	defer cancelStream()
	req, err := http.NewRequestWithContext(streamCtx, "GET", ts.URL+"/metrics/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(context.Background()) }()

	var got []TickMetrics
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var m TickMetrics
		if err := json.Unmarshal(scanner.Bytes(), &m); err != nil {
			t.Fatalf("stream line %q: %v", scanner.Text(), err)
		}
		got = append(got, m)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != ticks {
		t.Fatalf("streamed %d ticks, want %d", len(got), ticks)
	}
	for i, m := range got {
		if m.Tick != i+1 || m.Jobs != 3 {
			t.Fatalf("stream[%d] = %+v, want tick %d with 3 jobs", i, m, i+1)
		}
	}

	// The finished driver reports stopped (503) but keeps answering.
	var health HealthResponse
	getJSON(t, ts, "/healthz", http.StatusServiceUnavailable, &health)
	if health.Status != "stopped" {
		t.Errorf("post-run health = %+v, want stopped", health)
	}
	var status StatusResponse
	getJSON(t, ts, "/status", http.StatusOK, &status)
	if status.Tick != ticks || status.Last == nil || status.Last.Tick != ticks {
		t.Errorf("post-run status tick = %d (last %+v), want %d", status.Tick, status.Last, ticks)
	}
}

// A fault script surfaces in /status (injected counts) and /healthz
// (degraded while a failure run is active), and the driver survives the
// whole script.
func TestServerReportsInjectedFaults(t *testing.T) {
	script := &rdt.FaultScript{
		Faults: []rdt.Fault{
			{Op: rdt.OpSample, Kind: rdt.FaultNaN, Call: 10},
			{Op: rdt.OpSample, Kind: rdt.FaultError, Call: 20, Repeat: 2},
		},
	}
	srv := newTestServer(t, script, 30)
	if err := srv.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var status StatusResponse
	getJSON(t, ts, "/status", http.StatusOK, &status)
	if status.Faults == nil {
		t.Fatal("status.injectedFaults missing with an injector attached")
	}
	if status.Faults.SampleNaNs != 1 || status.Faults.SampleErrors != 2 {
		t.Errorf("injected faults = %+v, want 1 NaN + 2 sample errors", status.Faults)
	}
	if status.Summary.BadSamples != 1 || status.Summary.SampleErrors != 2 {
		t.Errorf("summary = %+v, want the loop to have absorbed every fault", status.Summary)
	}
	if !status.Health.Healthy() {
		t.Errorf("health = %+v, want recovered by tick 30", status.Health)
	}
}

// Identical server runs with identical fault scripts produce identical
// summaries — the daemon stack adds no nondeterminism over the loop.
func TestServerFaultRunDeterministic(t *testing.T) {
	run := func() string {
		script := &rdt.FaultScript{
			Seed:            5,
			SampleErrorRate: 0.05, SampleCorruptRate: 0.05, ApplyErrorRate: 0.05,
		}
		srv := newTestServer(t, script, 200)
		if err := srv.Run(context.Background()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return fmt.Sprintf("%s | %+v", srv.Loop().Summary(), srv.Loop().Health())
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("fault runs diverged:\n  a: %s\n  b: %s", a, b)
	}
}

// Two concurrent partial goal updates — one names only the throughput
// formula, the other only the fairness formula — must both land, however
// they interleave with each other and with a free-running tick loop:
// POST /goal reads, overrides and sets the pair in one critical section.
func TestConcurrentPartialGoalPosts(t *testing.T) {
	srv := newTestServer(t, nil, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- srv.Run(ctx) }()

	// Each round moves both formulas to a pair the previous round did not
	// leave behind, so a dropped update shows in that round's status.
	pairs := [2]GoalRequest{
		{Throughput: "geomean-speedup", Fairness: "one-minus-cov"},
		{Throughput: "sum-ips", Fairness: "jain"},
	}
	for round := 0; round < 60; round++ {
		want := pairs[round%2]
		var wg sync.WaitGroup
		for _, req := range []GoalRequest{{Throughput: want.Throughput}, {Fairness: want.Fairness}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, _ := json.Marshal(req)
				resp, err := ts.Client().Post(ts.URL+"/goal", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("POST /goal %s: %v", body, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("POST /goal %s: status = %d, want 200", body, resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		var status StatusResponse
		getJSON(t, ts, "/status", http.StatusOK, &status)
		if status.Throughput != want.Throughput || status.Fairness != want.Fairness {
			t.Fatalf("round %d: goal = %s + %s, want %s + %s: a concurrent partial update was lost",
				round, status.Throughput, status.Fairness, want.Throughput, want.Fairness)
		}
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
