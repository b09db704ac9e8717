// Command satorid runs the SATORI control loop as a long-lived daemon:
// the same Algorithm-1 tick cadence as cmd/satori, but with an HTTP API
// for live operation — submit and evict workloads while the loop runs,
// reconfigure the optimization goal, watch health, and stream per-tick
// metrics — plus graceful shutdown on SIGINT/SIGTERM.
//
// Quickstart (simulated backend):
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

	"satori/internal/control"
	"satori/internal/harness"
	"satori/internal/rdt"
	"satori/internal/server"
	"satori/internal/sim"
	"satori/internal/workloads"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	workloadList := flag.String("workloads", "", "comma-separated benchmark names to start with")
	suite := flag.String("suite", "", "start from a paper mix of this suite instead (parsec|cloudsuite|ecp)")
	mixIdx := flag.Int("mix", 0, "mix index within -suite")
	policyName := flag.String("policy", "satori", "partitioning policy")
	clusterK := flag.Int("cluster-k", 0, "cluster jobs onto at most K control groups (satori-clustered/lfoc; with -policy satori this switches to satori-clustered)")
	seed := flag.Uint64("seed", 1, "random seed")
	tick := flag.Duration("tick", 100*time.Millisecond, "wall-clock interval between loop ticks (0 = free-run)")
	maxTicks := flag.Int("max-ticks", 0, "stop after this many ticks (0 = run until signaled)")
	faultSpec := flag.String("fault", "", "deterministic fault script, e.g. 'sample:nan@50,apply:error@100x3'")
	sampled := flag.Bool("sampled", false, "extrapolate phase-stable intervals (sampled simulation)")
	sloGoalSwitch := flag.Bool("slo-goal-switch", false, "switch the fairness goal to SLO recovery while a violation persists")
	sloUnhealthy := flag.Int("slo-unhealthy-after", 0, "report 503 on /healthz after a sustained SLO violation of this many ticks (0 = off)")
	flag.Parse()
	log.SetFlags(0)

	srv, err := buildServer(*addr, *workloadList, *suite, *mixIdx, *policyName, *clusterK,
		*seed, *tick, *maxTicks, *faultSpec, *sampled, *sloGoalSwitch, *sloUnhealthy)
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

// buildServer assembles the simulated-backend daemon stack: profiles →
// simulator → platform (optionally fault-wrapped) → control loop →
// server.
func buildServer(addr, workloadList, suite string, mixIdx int, policyName string, clusterK int,
	seed uint64, tick time.Duration, maxTicks int, faultSpec string, sampled bool,
	sloGoalSwitch bool, sloUnhealthy int) (*server.Server, error) {
	profiles, err := workloads.Select(workloadList, suite, mixIdx)
	if err != nil {
		return nil, err
	}
	policy, _, err := harness.ResolvePolicy(policyName, seed, clusterK)
	if err != nil {
		return nil, err
	}

	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	var platform rdt.Platform
	platform, err = rdt.NewSimPlatform(simulator)
	if err != nil {
		return nil, err
	}
	if faultSpec != "" {
		script, err := rdt.ParseFaultScript(faultSpec)
		if err != nil {
			return nil, err
		}
		script.Seed = seed
		platform, err = rdt.NewFaultInjector(platform, script)
		if err != nil {
			return nil, err
		}
	}

	loop, err := control.New(control.Options{
		Platform: platform,
		Policy:   policy,
		Sampling: control.SamplingOptions{Enabled: sampled},
		SLO:      control.SLOOptions{GoalSwitch: sloGoalSwitch},
		Resilience: control.ResilienceOptions{
			Sleep: time.Sleep, // real deployment: backoff waits on the wall clock
		},
	})
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
