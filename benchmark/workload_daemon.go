package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"satori/internal/control"
	"satori/internal/harness"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/server"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// The open loop: one client, one keep-alive connection, a fixed schedule.
const (
	daemonRate     = 100 // requests per second
	daemonInterval = time.Second / daemonRate
	daemonMinJobs  = 3
	daemonMaxJobs  = 8
)

var daemonStartNames = []string{"memcached-lc", "nginx-lc", "canneal", "swaptions", "streamcluster"}

func daemonStartMix() []*sim.Profile {
	out := make([]*sim.Profile, len(daemonStartNames))
	for i, name := range daemonStartNames {
		p, err := workloads.ByName(name)
		if err != nil {
			panic(err) // the names are constants of the built-in suites
		}
		out[i] = p
	}
	return out
}

// request is one entry of the seeded script.
type request struct {
	route  string // status | add | del | goal
	method string
	path   string
	body   string
}

// daemonScript draws n requests: 31 % GET /status, 54 % membership changes
// and 15 % POST /goal. The membership changes walk the job count up to
// daemonMaxJobs and back down to daemonMinJobs, again and again, so every
// request is valid, none may fail, and every seed spends the same share of
// its time at every job count (a tick's cost grows with the job count, so a
// free random walk would make the daemon's speed a property of the seed).
// The seed chooses the order of request kinds, the workloads submitted, the
// slots evicted and the goals set.
func daemonScript(seed uint64, n int) []request {
	rng := stats.NewRNG(seed ^ 0xDAE707)
	pool := workloads.Names()
	tputs := []string{"sum-ips", "geomean-speedup", "harmonic-speedup", "p99-latency"}
	fairs := []string{"jain", "one-minus-cov", "slo-attainment"}
	jobs, growing := len(daemonStartNames), true
	out := make([]request, 0, n)
	for len(out) < n {
		switch u := rng.Float64(); {
		case u < 0.31:
			out = append(out, request{"status", http.MethodGet, "/status", ""})
		case u < 0.85 && growing:
			jobs++
			growing = jobs < daemonMaxJobs
			body := fmt.Sprintf(`{"workload":%q}`, pool[rng.Intn(len(pool))])
			out = append(out, request{"add", http.MethodPost, "/jobs", body})
		case u < 0.85:
			slot := rng.Intn(jobs)
			jobs--
			growing = jobs <= daemonMinJobs
			out = append(out, request{"del", http.MethodDelete, fmt.Sprintf("/jobs/%d", slot), ""})
		default:
			body := fmt.Sprintf(`{"throughput":%q,"fairness":%q}`, tputs[rng.Intn(len(tputs))], fairs[rng.Intn(len(fairs))])
			out = append(out, request{"goal", http.MethodPost, "/goal", body})
		}
	}
	return out
}

// daemon is satorid's stack rebuilt in-process behind an httptest server.
type daemon struct {
	srv    *server.Server
	http   *httptest.Server
	client *http.Client
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	runErr error
}

func startDaemon(seed uint64, tr *tracer) (*daemon, error) {
	factory, err := harness.PolicyByName("satori")
	if err != nil {
		return nil, err
	}
	simulator, err := sim.New(sim.DefaultMachine(), daemonStartMix(), sim.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	bare, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		return nil, err
	}
	var platform rdt.Platform = bare
	if tr != nil {
		platform = tracePlatform(bare, tr)
	}
	loop, err := control.New(control.Options{
		Platform: platform,
		Policy: func(rdt.Platform) (policy.Policy, error) {
			in, err := factory(bare, seed)
			if err != nil || tr == nil {
				return in, err
			}
			return tracePolicy(in, tr), nil
		},
		SLO: control.SLOOptions{GoalSwitch: true},
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Loop: loop, TickEvery: -1})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		srv: srv, http: httptest.NewServer(srv.Handler()),
		client: &http.Client{Timeout: 10 * time.Second},
		cancel: cancel, done: make(chan error, 1),
	}
	go func() { d.done <- srv.Run(ctx) }()
	return d, nil
}

// stop ends the tick goroutine and the HTTP server and waits for both.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.cancel()
		d.runErr = <-d.done
		d.client.CloseIdleConnections()
		d.http.Close()
	})
	return d.runErr
}

// do sends one request and returns the status code and body.
func (d *daemon) do(r request) (int, []byte, error) {
	var body io.Reader
	if r.body != "" {
		body = bytes.NewReader([]byte(r.body))
	}
	req, err := http.NewRequest(r.method, d.http.URL+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) tick() (int, error) {
	code, body, err := d.do(request{"status", http.MethodGet, "/status", ""})
	if err != nil {
		return 0, err
	}
	var st server.StatusResponse
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("GET /status: code %d: %v", code, err)
	}
	return st.Tick, nil
}

func runDaemon(e env) (*result, error) {
	var d *daemon
	res := &result{}
	var err error
	// Set-up: build the stack, then let the free-running loop fill its
	// model window (and pay connection set-up) before the schedule starts.
	// The polls are sparse: each one takes the loop's lock, and frequent
	// ones slow the loop by an amount that depends on scheduling.
	res.rawSetup, res.setup, err = timeSetup(1, func() error {
		var err error
		if d, err = startDaemon(e.seed, e.tr); err != nil {
			return err
		}
		for warm := e.n(2000, 50); ; time.Sleep(25 * time.Millisecond) {
			if t, err := d.tick(); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			} else if t >= warm {
				return nil
			}
		}
	})
	if d != nil {
		defer d.stop()
	}
	if err != nil {
		return nil, err
	}
	e.traceOn()

	n := max(20, int(e.slice/daemonInterval))
	script := daemonScript(e.seed, n)
	res.m = newMeter(n, 1)
	res.m.wallOps = true
	byRoute := map[string][]float64{}
	var late []float64
	var final server.StatusResponse
	// A chunk runs from one status read to the first one at least
	// chunkLen later: the daemon's tick count is only visible there.
	chunkAt, chunkTick := time.Time{}, 0
	firstTick := -1
	m0 := mallocCount()
	start := time.Now()
	for i, r := range script {
		due := start.Add(time.Duration(i) * daemonInterval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		var sp int32
		if e.tr != nil {
			sp = e.tr.begin(spanOp, -1, int32(i))
		}
		code, body, err := d.do(r)
		if e.tr != nil {
			e.tr.end(sp)
		}
		end := time.Now()
		res.attempted++
		// Latency counts from when the request was due, so a stall of
		// the daemon charges the requests queued behind it.
		lat := end.Sub(due)
		res.m.observe(lat)
		byRoute[r.route] = append(byRoute[r.route], float64(lat))
		late = append(late, float64(sent.Sub(due)))
		if err != nil || code < 200 || code > 299 {
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("request %d %s %s: code %d err %v", i, r.method, r.path, code, err))
			continue
		}
		if r.route != "status" || json.Unmarshal(body, &final) != nil {
			continue
		}
		switch {
		case firstTick < 0:
			firstTick, chunkAt, chunkTick = final.Tick, end, final.Tick
		case end.Sub(chunkAt) >= chunkLen:
			res.m.closeChunk(float64(final.Tick-chunkTick), float64(end.Sub(chunkAt)))
			chunkAt, chunkTick = end, final.Tick
		}
	}
	res.mallocs = mallocCount() - m0
	res.liveHeap = liveHeapOf(d)

	// Closing checks: the loop is healthy, its clock advanced, and the
	// final status is the one quality is read from.
	code, body, err := d.do(request{"healthz", http.MethodGet, "/healthz", ""})
	var health server.HealthResponse
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &health) != nil || health.Status != "ok" {
		res.errs = append(res.errs, fmt.Sprintf("final /healthz: code %d status %q err %v", code, health.Status, err))
	}
	code, body, err = d.do(request{"status", http.MethodGet, "/status", ""})
	end := time.Now()
	if err != nil || code != http.StatusOK || json.Unmarshal(body, &final) != nil {
		res.errs = append(res.errs, fmt.Sprintf("final /status: code %d err %v", code, err))
	}
	if firstTick < 0 || final.Tick <= firstTick {
		res.errs = append(res.errs, "daemon tick count did not advance")
	} else {
		res.m.closeChunk(float64(final.Tick-chunkTick), float64(end.Sub(chunkAt)))
		res.ticks = float64(final.Tick - firstTick)
	}
	res.quality = [2]float64{final.Summary.MeanThroughput, final.Summary.MeanFairness}
	res.failed += int64(final.Summary.RejectedApplies + final.Summary.BadSamples)
	res.counters = map[string]float64{
		"slo.violated_tick_ratio": float64(final.Summary.SLOViolatedTicks) / float64(max(1, final.Summary.Ticks)),
		"slo.goal_switches":       float64(final.Summary.GoalSwitches),
	}
	res.extras = []metric{
		{"server.req_p99_us", quantile(res.m.ops, 0.99) / 1e3, "us"},
		{"server.generator_late_p99_us", quantile(late, 0.99) / 1e3, "us"},
	}
	for _, route := range []string{"status", "add", "del", "goal"} {
		res.extras = append(res.extras, metric{"server." + route + "_p50_us", median(byRoute[route]) / 1e3, "us"})
	}
	if err := d.stop(); err != nil {
		res.errs = append(res.errs, "tick loop stopped with: "+err.Error())
	}
	return res, nil
}
