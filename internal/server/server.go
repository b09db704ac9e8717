// Package server turns a control.Loop into a long-running service: a
// tick driver advancing the Algorithm-1 loop on a wall-clock (or
// free-running) schedule, plus an HTTP API for live operation — submit
// and remove workloads through the platform's churn capability, swap the
// goal formulas mid-run, inspect health and status, and stream per-tick
// metrics. cmd/satorid is the thin binary around this package; the soak
// tests drive the identical stack hermetically over net/http/httptest.
//
// Concurrency model: one goroutine (Run) owns the tick cadence; every
// HTTP handler takes the same lock as the tick, so churn serializes
// between intervals exactly like the batch drivers' between-tick churn.
// The lock is granted in arrival order (turnLock): a free-running driver
// re-takes it the moment it lets go, and a request must wait one tick for
// it, not for the runtime to notice a starved waiter.
// Metrics fan out over bounded per-subscriber buffers — a stalled client
// drops its own events, never blocks the loop, and never grows memory.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"satori/internal/control"
	"satori/internal/metrics"
	"satori/internal/rdt"
	"satori/internal/workloads"
)

// Options configures a Server.
type Options struct {
	// Loop is the control loop the server owns (required). The server
	// is its only driver: all stepping and churn go through the server's
	// lock.
	Loop *control.Loop
	// TickEvery is the wall-clock interval between loop ticks: zero is
	// the default 100 ms (the paper's cadence), negative free-runs the
	// loop — the soak/CI mode, where simulated time needs no wall anchor.
	TickEvery time.Duration
	// MaxTicks stops the driver cleanly after this many intervals
	// (0 = run until the context is canceled).
	MaxTicks int
	// SLOUnhealthyAfter, when positive, makes /healthz report 503 once a
	// latency-critical job's SLO violation has persisted for this many
	// consecutive ticks — the orchestrator-facing "this node needs
	// help" signal. Zero (the default) keeps /healthz purely about loop
	// health, SLO state notwithstanding.
	SLOUnhealthyAfter int
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Server owns a control loop and serves the daemon API.
type Server struct {
	mu        turnLock // guards loop, last, haveLast, runErr, stopped
	loop      *control.Loop
	last      control.Status
	haveLast  bool
	runErr    error
	stopped   bool
	tickEvery time.Duration
	maxTicks  int
	injector  *rdt.FaultInjector // the one on the loop's platform, if any (/status ground truth)
	sloAfter  int
	logf      func(string, ...any)

	subMu   sync.Mutex
	subs    map[int]chan TickMetrics
	nextSub int
}

// turnLock is a mutex that changes hands in arrival order: a one-slot
// channel whose slot is the lock. Unlock wakes the longest-blocked Lock
// with the slot already its own, so whoever unlocks and locks again right
// away queues behind every waiter. sync.Mutex lets that caller barge until
// a waiter has starved for 1 ms — ten ticks of a free-running driver.
type turnLock chan struct{}

func (l turnLock) Lock()   { l <- struct{}{} }
func (l turnLock) Unlock() { <-l }

// New builds a server around opt.Loop.
func New(opt Options) (*Server, error) {
	if opt.Loop == nil {
		return nil, fmt.Errorf("server: Options.Loop is required")
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tickEvery := opt.TickEvery
	if tickEvery == 0 {
		tickEvery = 100 * time.Millisecond
	}
	injector, _ := rdt.As[*rdt.FaultInjector](opt.Loop.Platform())
	return &Server{
		mu:        make(turnLock, 1),
		loop:      opt.Loop,
		tickEvery: tickEvery,
		maxTicks:  opt.MaxTicks,
		injector:  injector,
		sloAfter:  opt.SLOUnhealthyAfter,
		logf:      logf,
		subs:      map[int]chan TickMetrics{},
	}, nil
}

// Loop returns the owned control loop. Callers outside the request path
// must not step it while Run is active.
func (s *Server) Loop() *control.Loop { return s.loop }

// Run drives the loop until ctx is canceled, MaxTicks intervals have
// completed, or the loop fails fatally (a non-transient platform error
// or a policy/platform desync). Transient trouble never surfaces here —
// the loop's resilience policies absorb it and the Health endpoint
// reports it. Run always leaves the server in a state where the HTTP
// handlers keep answering (reporting the terminal error, if any).
func (s *Server) Run(ctx context.Context) error {
	defer s.closeSubscribers()
	var ticker *time.Ticker
	if s.tickEvery > 0 {
		ticker = time.NewTicker(s.tickEvery)
		defer ticker.Stop()
	}
	for n := 0; s.maxTicks <= 0 || n < s.maxTicks; n++ {
		if ticker != nil {
			select {
			case <-ctx.Done():
				return s.finish(nil)
			case <-ticker.C:
			}
		} else if ctx.Err() != nil {
			return s.finish(nil)
		}
		s.mu.Lock()
		st, err := s.loop.Step()
		if err != nil {
			s.runErr = err
			s.stopped = true
			s.mu.Unlock()
			s.logf("satorid: tick loop stopped: %v", err)
			return err
		}
		s.last = st
		s.haveLast = true
		jobs := s.loop.NumJobs()
		s.mu.Unlock()
		s.publish(tickMetrics(st, jobs))
	}
	return s.finish(nil)
}

// finish marks the driver stopped (clean shutdown or MaxTicks reached).
func (s *Server) finish(err error) error {
	s.mu.Lock()
	s.stopped = true
	if s.runErr == nil {
		s.runErr = err
	}
	s.mu.Unlock()
	return err
}

// TickMetrics is one interval's streamed record (the /metrics/stream
// NDJSON schema).
type TickMetrics struct {
	Tick         int     `json:"tick"`
	Time         float64 `json:"time"`
	Jobs         int     `json:"jobs"`
	Throughput   float64 `json:"throughput"`
	Fairness     float64 `json:"fairness"`
	BaselineRst  bool    `json:"baselineReset,omitempty"`
	Sampled      bool    `json:"sampled,omitempty"`
	BadSample    bool    `json:"badSample,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	SafeFallback bool    `json:"safeFallback,omitempty"`
	Rejected     bool    `json:"rejectedApply,omitempty"`
	// SLO is present exactly when the loop tracks latency-critical jobs.
	SLO *TickSLO `json:"slo,omitempty"`
}

// TickSLO is the per-tick latency-critical block: per-slot tail-latency
// quantiles in seconds (-1 marks a saturated service whose queue is
// unbounded — JSON cannot carry +Inf), the mean SLO attainment, and the
// hysteretic violation / goal-switch state.
type TickSLO struct {
	P95          []float64 `json:"p95"`
	P99          []float64 `json:"p99"`
	Attainment   float64   `json:"attainment"`
	Violating    bool      `json:"violating"`
	GoalSwitched bool      `json:"goalSwitched,omitempty"`
}

// finiteLatencies sanitizes a quantile slice for JSON: +Inf → -1.
func finiteLatencies(in []float64) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		if math.IsInf(v, 1) {
			out[i] = -1
			continue
		}
		out[i] = v
	}
	return out
}

func tickMetrics(st control.Status, jobs int) TickMetrics {
	m := TickMetrics{
		Tick: st.Tick, Time: st.Time, Jobs: jobs,
		Throughput: st.Throughput, Fairness: st.Fairness,
		BaselineRst: st.BaselineReset, Sampled: st.SampledTick,
		BadSample: st.Held == control.HeldSampleCorrupt, Degraded: st.Held == control.HeldSampleLost,
		SafeFallback: st.SafeFallback, Rejected: st.Held == control.HeldApplyRejected,
	}
	if st.SLO != nil {
		m.SLO = &TickSLO{
			P95:          finiteLatencies(st.SLO.P95),
			P99:          finiteLatencies(st.SLO.P99),
			Attainment:   st.SLOAttainment,
			Violating:    st.SLOViolating,
			GoalSwitched: st.SLO.GoalSwitched,
		}
	}
	return m
}

// publish fans an event out to every subscriber; a subscriber whose
// buffer is full loses this event (bounded memory beats completeness
// for a monitoring stream).
func (s *Server) publish(m TickMetrics) {
	s.subMu.Lock()
	for _, ch := range s.subs {
		select {
		case ch <- m:
		default:
		}
	}
	s.subMu.Unlock()
}

// subscribe registers a metrics listener; the returned cancel must be
// called exactly once.
func (s *Server) subscribe() (<-chan TickMetrics, func()) {
	ch := make(chan TickMetrics, 64)
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.subMu.Unlock()
	return ch, func() {
		s.subMu.Lock()
		if _, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(ch)
		}
		s.subMu.Unlock()
	}
}

// closeSubscribers ends every metrics stream (driver shutdown).
func (s *Server) closeSubscribers() {
	s.subMu.Lock()
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
	s.subMu.Unlock()
}

// Handler returns the daemon's HTTP API:
//
//	GET    /healthz          liveness (503 while degraded or stopped)
//	GET    /status           full JSON status (summary, health, faults)
//	GET    /jobs             job names by slot
//	POST   /jobs             {"workload": "<name>"} — submit via churn
//	DELETE /jobs/{slot}      evict the job in a slot
//	POST   /goal             {"throughput": "...", "fairness": "..."}
//	GET    /metrics/stream   NDJSON per-tick metrics until disconnect
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /jobs", s.handleListJobs)
	mux.HandleFunc("POST /jobs", s.handleAddJob)
	mux.HandleFunc("DELETE /jobs/{slot}", s.handleRemoveJob)
	mux.HandleFunc("POST /goal", s.handleGoal)
	mux.HandleFunc("GET /metrics/stream", s.handleStream)
	return mux
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// HealthResponse is the /healthz schema.
type HealthResponse struct {
	Status string         `json:"status"` // "ok" | "degraded" | "stopped" | "slo-violation"
	Health control.Health `json:"health"`
	// SLOViolationRun is the length of the current sustained SLO
	// violation in ticks (only set when the status is "slo-violation").
	SLOViolationRun int    `json:"sloViolationRun,omitempty"`
	Error           string `json:"error,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := s.loop.Health()
	stopped, runErr := s.stopped, s.runErr
	violRun := s.loop.SLOViolationRun()
	s.mu.Unlock()
	resp := HealthResponse{Status: "ok", Health: h}
	code := http.StatusOK
	switch {
	case stopped:
		resp.Status = "stopped"
		if runErr != nil {
			resp.Error = runErr.Error()
		}
		code = http.StatusServiceUnavailable
	case !h.Healthy():
		resp.Status = "degraded"
		code = http.StatusServiceUnavailable
	case s.sloAfter > 0 && violRun >= s.sloAfter:
		// Flag-gated: a sustained SLO violation marks the node unhealthy
		// so an orchestrator can drain or rebalance it.
		resp.Status = "slo-violation"
		resp.SLOViolationRun = violRun
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// StatusResponse is the /status schema.
type StatusResponse struct {
	Tick       int              `json:"tick"`
	Time       float64          `json:"time"`
	Jobs       []string         `json:"jobs"`
	Policy     string           `json:"policy"`
	Throughput string           `json:"throughputMetric"`
	Fairness   string           `json:"fairnessMetric"`
	Last       *TickMetrics     `json:"last,omitempty"`
	Summary    control.Summary  `json:"summary"`
	Health     control.Health   `json:"health"`
	Faults     *rdt.FaultCounts `json:"injectedFaults,omitempty"`
	// SLO is present exactly when the loop tracks latency-critical jobs.
	SLO *SLOStatus `json:"slo,omitempty"`
}

// SLOStatus is the /status latency-critical block.
type SLOStatus struct {
	// TargetsP99 holds each slot's p99 target in seconds (0 = batch job).
	TargetsP99 []float64 `json:"targetsP99"`
	// Violating is the hysteretic violation state; ViolationRun its
	// current length in ticks.
	Violating    bool `json:"violating"`
	ViolationRun int  `json:"violationRun"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	tm, fm := s.loop.Objectives()
	resp := StatusResponse{
		Tick:       s.loop.Ticks(),
		Time:       float64(s.loop.Ticks()) * control.TickSeconds,
		Jobs:       s.loop.Platform().JobNames(),
		Policy:     s.loop.Policy().Name(),
		Throughput: tm.String(),
		Fairness:   fm.String(),
		Summary:    s.loop.Summary(),
		Health:     s.loop.Health(),
	}
	if s.haveLast {
		m := tickMetrics(s.last, s.loop.NumJobs())
		resp.Last = &m
	}
	if specs := s.loop.SLOSpecs(); specs != nil {
		slo := &SLOStatus{
			TargetsP99:   make([]float64, len(specs)),
			Violating:    s.loop.SLOViolating(),
			ViolationRun: s.loop.SLOViolationRun(),
		}
		for i, sp := range specs {
			if sp != nil {
				slo.TargetsP99[i] = sp.TargetP99
			}
		}
		resp.SLO = slo
	}
	// The injector read also needs the lock: its counters mutate inside
	// Step, which runs under s.mu.
	if s.injector != nil {
		c := s.injector.Counts()
		resp.Faults = &c
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	names := s.loop.Platform().JobNames()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": names})
}

// AddJobRequest is the POST /jobs schema: a workload name from the
// built-in suites (see workloads.Names).
type AddJobRequest struct {
	Workload string `json:"workload"`
}

// maxBodyBytes bounds a POST body; both schemas are two short strings.
const maxBodyBytes = 64 << 10

// decodeBody reads a POST body into req: at most maxBodyBytes holding
// exactly one JSON value. Anything else is answered 400 here and reported
// as false.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(req)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return err == nil
}

func (s *Server) handleAddJob(w http.ResponseWriter, r *http.Request) {
	var req AddJobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	profile, err := workloads.ByName(req.Workload)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	err = s.loop.AddJob(profile)
	jobs := s.loop.Platform().JobNames()
	s.mu.Unlock()
	if err != nil {
		httpError(w, churnErrCode(err), "submit %s: %v", req.Workload, err)
		return
	}
	s.logf("satorid: admitted %s (now %d jobs)", req.Workload, len(jobs))
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "slot": len(jobs) - 1})
}

func (s *Server) handleRemoveJob(w http.ResponseWriter, r *http.Request) {
	slot, err := strconv.Atoi(r.PathValue("slot"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad slot %q", r.PathValue("slot"))
		return
	}
	s.mu.Lock()
	var name string
	if names := s.loop.Platform().JobNames(); slot >= 0 && slot < len(names) {
		name = names[slot]
	}
	err = s.loop.RemoveJob(slot)
	jobs := s.loop.Platform().JobNames()
	s.mu.Unlock()
	if err != nil {
		httpError(w, churnErrCode(err), "remove slot %d: %v", slot, err)
		return
	}
	s.logf("satorid: evicted %s from slot %d (now %d jobs)", name, slot, len(jobs))
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "removed": name})
}

// churnErrCode maps churn failures onto HTTP semantics: capability
// missing → 501, anything else (bad slot, last job, shape trouble) → 409.
func churnErrCode(err error) int {
	if errors.Is(err, control.ErrChurnUnsupported) {
		return http.StatusNotImplemented
	}
	return http.StatusConflict
}

// GoalRequest is the POST /goal schema; either field may be omitted to
// keep the current formula.
type GoalRequest struct {
	Throughput string `json:"throughput"`
	Fairness   string `json:"fairness"`
}

func (s *Server) handleGoal(w http.ResponseWriter, r *http.Request) {
	var req GoalRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Parse outside the lock, then read, override and set in one critical
	// section: a partial update keeps the formula it did not name as that
	// formula stands now, not as it stood before a concurrent request's.
	var (
		newTM metrics.ThroughputMetric
		newFM metrics.FairnessMetric
		err   error
	)
	if req.Throughput != "" {
		if newTM, err = parseThroughput(req.Throughput); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if req.Fairness != "" {
		if newFM, err = parseFairness(req.Fairness); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.mu.Lock()
	tm, fm := s.loop.Objectives()
	if req.Throughput != "" {
		tm = newTM
	}
	if req.Fairness != "" {
		fm = newFM
	}
	s.loop.SetObjectives(tm, fm)
	tm, fm = s.loop.Objectives()
	s.mu.Unlock()
	s.logf("satorid: goal reconfigured to %s + %s", tm, fm)
	writeJSON(w, http.StatusOK, map[string]string{"throughput": tm.String(), "fairness": fm.String()})
}

// parseThroughput resolves a throughput-metric name (the String() forms
// plus common short aliases).
func parseThroughput(name string) (metrics.ThroughputMetric, error) {
	switch name {
	case "sum-ips", "sumips":
		return metrics.SumIPS, nil
	case "geomean-speedup", "geomean":
		return metrics.GeoMeanSpeedup, nil
	case "harmonic-speedup", "harmonic":
		return metrics.HarmonicMeanSpeedup, nil
	case "p99-latency", "p99":
		return metrics.P99Latency, nil
	}
	return 0, fmt.Errorf("unknown throughput metric %q (valid: sum-ips, geomean-speedup, harmonic-speedup, p99-latency)", name)
}

// parseFairness resolves a fairness-metric name.
func parseFairness(name string) (metrics.FairnessMetric, error) {
	switch name {
	case "jain":
		return metrics.JainIndex, nil
	case "one-minus-cov", "cov":
		return metrics.OneMinusCoV, nil
	case "slo-attainment", "attainment":
		return metrics.SLOAttainment, nil
	}
	return 0, fmt.Errorf("unknown fairness metric %q (valid: jain, one-minus-cov, slo-attainment)", name)
}

// handleStream serves NDJSON per-tick metrics until the client
// disconnects or the driver shuts down.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	ch, cancel := s.subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case m, ok := <-ch:
			if !ok {
				return // driver shut down
			}
			if err := enc.Encode(m); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
