package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"satori/internal/rdt"
	"satori/internal/workloads"
)

// The daemon soak: a free-running server under a randomized fault script
// while load-generator goroutines churn jobs, flip the goal, poll status
// and consume the metrics stream over real HTTP — sustained operation
// must end with a clean shutdown, no goroutine leaks, bounded heap
// growth, and a loop that absorbed every transient fault.
func TestSoakChurnUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	goroutinesBefore := runtime.NumGoroutine()
	var memBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)

	const soakTicks = 3000
	script := &rdt.FaultScript{
		Seed:            99,
		ApplyErrorRate:  0.02,
		SampleErrorRate: 0.02, SampleCorruptRate: 0.01,
		MeasureErrorRate: 0.05, ResyncErrorRate: 0.05,
	}
	srv := newTestServer(t, script, soakTicks)
	// Pace the driver at 1 ms/tick (vs the production 100 ms) so the
	// HTTP load generators genuinely interleave with live ticking.
	srv.tickEvery = time.Millisecond
	ts := httptest.NewServer(srv.Handler())

	runDone := make(chan error, 1)
	runCtx, cancelRun := context.WithCancel(context.Background())
	go func() { runDone <- srv.Run(runCtx) }()

	// Load generators: churners add/remove random workloads, a goal
	// flipper alternates fairness formulas, pollers hammer status and
	// health, one subscriber drains the stream, one subscribes and
	// abandons (exercising the bounded-buffer drop path).
	loadCtx, stopLoad := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var churns, polls atomic.Int64
	names := workloads.Names()

	post := func(path string, body any) (int, error) {
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(body)
		resp, err := ts.Client().Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; loadCtx.Err() == nil; i++ {
				if i%2 == 0 {
					code, err := post("/jobs", AddJobRequest{Workload: names[(g*7+i)%len(names)]})
					if err != nil {
						return
					}
					// 200 (admitted) or 409 (platform at capacity / shape
					// constraints) are both healthy outcomes under churn.
					if code != http.StatusOK && code != http.StatusConflict {
						t.Errorf("churn add: unexpected status %d", code)
						return
					}
				} else {
					req, _ := http.NewRequest("DELETE", ts.URL+fmt.Sprintf("/jobs/%d", 2+g), nil)
					resp, err := ts.Client().Do(req)
					if err != nil {
						return
					}
					resp.Body.Close()
				}
				churns.Add(1)
				time.Sleep(time.Millisecond)
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		goals := []GoalRequest{{Fairness: "one-minus-cov"}, {Fairness: "jain"}, {Throughput: "geomean-speedup"}, {Throughput: "sum-ips"}}
		for i := 0; loadCtx.Err() == nil; i++ {
			if _, err := post("/goal", goals[i%len(goals)]); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for loadCtx.Err() == nil {
				for _, path := range []string{"/status", "/healthz", "/jobs"} {
					resp, err := ts.Client().Get(ts.URL + path)
					if err != nil {
						return
					}
					resp.Body.Close()
					polls.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	var streamed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(loadCtx, "GET", ts.URL+"/metrics/stream", nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		scanner := bufio.NewScanner(resp.Body)
		for scanner.Scan() {
			streamed.Add(1)
		}
	}()

	// An abandoned subscriber: connects, reads nothing, disconnects
	// mid-run. Its buffer must fill and drop without stalling the loop.
	abandonCtx, abandon := context.WithTimeout(loadCtx, 50*time.Millisecond)
	defer abandon()
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequestWithContext(abandonCtx, "GET", ts.URL+"/metrics/stream", nil)
		if resp, err := ts.Client().Do(req); err == nil {
			<-abandonCtx.Done()
			resp.Body.Close()
		}
	}()

	// Let the soak run to completion (free-running, so this is fast).
	var runErr error
	select {
	case runErr = <-runDone:
	case <-time.After(2 * time.Minute):
		cancelRun()
		t.Fatal("soak did not finish within 2 minutes")
	}
	stopLoad()
	wg.Wait()
	cancelRun()
	ts.Close()

	if runErr != nil {
		t.Fatalf("soak run failed: %v", runErr)
	}
	loop := srv.Loop()
	sum := loop.Summary()
	if sum.Ticks != soakTicks {
		t.Errorf("completed %d ticks, want %d", sum.Ticks, soakTicks)
	}
	fi, _ := rdt.As[*rdt.FaultInjector](loop.Platform())
	counts := fi.Counts()
	if counts.Total() == 0 {
		t.Error("soak injected no faults — script rates never fired")
	}
	if churns.Load() == 0 || polls.Load() == 0 || streamed.Load() == 0 {
		t.Errorf("load generators idle: churns=%d polls=%d streamed=%d",
			churns.Load(), polls.Load(), streamed.Load())
	}
	t.Logf("soak: %d ticks, %d churn ops, %d polls, %d streamed, faults %+v, %s",
		sum.Ticks, churns.Load(), polls.Load(), streamed.Load(), counts, sum)

	// No goroutine leaks: everything spawned by the server, the stream
	// handlers, and the HTTP stack must wind down. (No external leak
	// detector is available, so poll NumGoroutine until it settles.)
	deadline := time.Now().Add(5 * time.Second)
	var goroutinesAfter int
	for {
		runtime.GC()
		goroutinesAfter = runtime.NumGoroutine()
		if goroutinesAfter <= goroutinesBefore+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if goroutinesAfter > goroutinesBefore+2 {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after\n%s", goroutinesBefore, goroutinesAfter, buf[:n])
	}

	// Bounded memory: a 4000-tick soak with churn and streaming must not
	// accumulate state. The bound is deliberately generous — it catches
	// unbounded growth (per-tick retention), not allocator noise.
	runtime.GC()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	if growth := int64(memAfter.HeapAlloc) - int64(memBefore.HeapAlloc); growth > 64<<20 {
		t.Errorf("heap grew by %d MiB over the soak — per-tick state is being retained", growth>>20)
	}
}
