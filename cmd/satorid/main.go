// Command satorid runs the SATORI control loop as a long-lived daemon:
// the same Algorithm-1 tick cadence as cmd/satori, but with an HTTP API
// for live operation — submit and evict workloads while the loop runs,
// reconfigure the optimization goal, watch health, and stream per-tick
// metrics — plus graceful shutdown on SIGINT/SIGTERM.
//
// The stack flags (jobs, policy, backend, faults — internal/stack) are
// cmd/satori's too; over -backend resctrl the job set is fixed and churn
// answers 501. Quickstart (simulated backend):
//
//	satorid -suite parsec -mix 0 -policy satori &
//	curl localhost:8080/status
//	curl -X POST localhost:8080/jobs -d '{"workload":"streamcluster"}'
//	curl -X DELETE localhost:8080/jobs/2
//	curl -X POST localhost:8080/goal -d '{"fairness":"one-minus-cov"}'
//	curl localhost:8080/metrics/stream
//	kill %1   # prints the run summary and health on the way out
//
// A -fault script (see rdt.ParseFaultScript) injects deterministic
// platform failures for resilience testing; -max-ticks plus -tick 0
// free-runs a bounded soak and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"satori/internal/rdt"
	"satori/internal/server"
	"satori/internal/stack"
)

func main() {
	var spec stack.Spec
	spec.Register(flag.CommandLine)
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	tick := flag.Duration("tick", 100*time.Millisecond, "wall-clock interval between loop ticks (0 = free-run)")
	maxTicks := flag.Int("max-ticks", 0, "stop after this many ticks (0 = run until signaled)")
	sloUnhealthy := flag.Int("slo-unhealthy-after", 0, "report 503 on /healthz after a sustained SLO violation of this many ticks (0 = off)")
	flag.Parse()
	log.SetFlags(0)

	srv, err := buildServer(spec, *tick, *maxTicks, *sloUnhealthy)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("satorid: listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	log.Printf("satorid: serving on http://%s (policy=%s, jobs=%v)",
		ln.Addr(), srv.Loop().Policy().Name(), srv.Loop().Platform().JobNames())

	runErr := srv.Run(ctx)

	// Drain the HTTP side: in-flight requests get a grace period, then
	// the summary prints regardless of why the driver stopped.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(shutCtx)
	cancel()
	select {
	case err := <-httpErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("satorid: http server: %v", err)
		}
	default:
	}

	loop := srv.Loop()
	fmt.Println(loop.Summary())
	h := loop.Health()
	fmt.Printf("health: ticks=%d healthy=%v breaker-trips=%d retries=%d\n",
		h.Ticks, h.Healthy(), h.BreakerTrips, h.Retries)
	if fi, ok := rdt.As[*rdt.FaultInjector](loop.Platform()); ok {
		c := fi.Counts()
		fmt.Printf("injected-faults: apply=%d sample=%d nan=%d negative=%d measure=%d resync=%d total=%d\n",
			c.ApplyErrors, c.SampleErrors, c.SampleNaNs, c.SampleNegatives,
			c.MeasureErrors, c.ResyncErrors, c.Total())
	}
	if runErr != nil {
		log.Fatalf("satorid: control loop stopped: %v", runErr)
	}
}

// buildServer puts the daemon's own flags around the stack: the loop
// runs at most maxTicks intervals (0: until signaled), one every tick
// (0: free-run). None of the three may be negative.
func buildServer(spec stack.Spec, tick time.Duration, maxTicks, sloUnhealthy int) (*server.Server, error) {
	switch {
	case tick < 0:
		return nil, fmt.Errorf("-tick %v: must be >= 0 (0 = free-run)", tick)
	case maxTicks < 0:
		return nil, fmt.Errorf("-max-ticks %d: must be >= 0 (0 = run until signaled)", maxTicks)
	case sloUnhealthy < 0:
		return nil, fmt.Errorf("-slo-unhealthy-after %d: must be >= 0 (0 = off)", sloUnhealthy)
	}
	loop, err := spec.Build(maxTicks)
	if err != nil {
		return nil, err
	}
	// server.Options reads a zero TickEvery as "default cadence"; the
	// flag's 0 means free-run, which the server takes as any negative
	// interval.
	if tick == 0 {
		tick = -1
	}
	return server.New(server.Options{
		Loop:              loop,
		TickEvery:         tick,
		MaxTicks:          maxTicks,
		SLOUnhealthyAfter: sloUnhealthy,
		Logf:              log.Printf,
	})
}
