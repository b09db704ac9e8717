// Command fleet simulates a multi-node cluster serving a continuous
// stream of jobs: every node runs its own SATORI (or baseline) engine, a
// placer decides which node each arriving job co-locates on, and
// fleet-level throughput and fairness are reported per 100 ms tick.
//
// Usage:
//
//	fleet -nodes 8 -arrival-rate 0.5 -duration-mean 30 -seconds 120
//	fleet -nodes 4 -placer fairness -policy parties -csv fleet.csv
//	fleet -nodes 8 -seed 42 -workers 1   # byte-identical to -workers 8
//	fleet -nodes 1000 -shards 16 -event-driven -seconds 300
//	for k in 1 4 16 64; do fleet -nodes 64 -shards $k; done   # placement quality vs k
//
// Any -workers value (default 0: one per CPU) produces byte-identical
// output; parallelism only changes wall-clock time. -shards splits
// placement into POP-style independent subproblems, and -event-driven
// lets phase-stable nodes defer detailed ticks; both trade a documented
// amount of fidelity for fleet-scale throughput.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"satori"
	"satori/internal/fleet"
	"satori/internal/stack"
)

func main() {
	opt, ticks, csvPath, err := options(flag.CommandLine, os.Args[1:])
	if errors.Is(err, errArgs) {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := fleet.New(opt)
	if err != nil {
		log.Fatal(err)
	}
	report := ticks / 10
	if report < 1 {
		report = 1
	}
	fmt.Printf("fleet: %d nodes (%d shards%s), policy=%s placer=%s, %.2g jobs/s, mean service %.3gs\n",
		opt.Nodes, cluster.ShardCount(), map[bool]string{true: ", event-driven", false: ""}[opt.EventDriven],
		opt.Policy, opt.Placer, opt.Stream.ArrivalRate, opt.Stream.DurationMean)
	for i := 1; i <= ticks; i++ {
		st, err := cluster.Step()
		if err != nil {
			log.Fatal(err)
		}
		if i%report == 0 {
			fmt.Printf("t=%7.1fs  jobs=%3d queued=%2d  sumips=%.3g  geomean=%.3f  jain=%.3f\n",
				st.Time, st.Running, st.Queued, st.SumIPS, st.GeoMeanSpeedup, st.Jain)
		}
	}
	fmt.Println(cluster.Summary())

	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := cluster.Series().WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("trace written to", csvPath)
	}
}

// options parses args on fs into the fleet's options, the run length in
// ticks and the -csv path. fleet.Options reads a zero or negative rate,
// mean, shard count or per-node cap as its default, a NaN rate as no
// arrivals and a NaN mean as instant departures, so such values, and
// ±Inf, are refused here by flag name.
func options(fs *flag.FlagSet, args []string) (fleet.Options, int, string, error) {
	var opt fleet.Options
	fs.IntVar(&opt.Nodes, "nodes", 4, "cluster size")
	fs.Float64Var(&opt.Stream.ArrivalRate, "arrival-rate", 0.5, "fleet-wide Poisson job arrival rate, jobs/second")
	fs.Float64Var(&opt.Stream.DurationMean, "duration-mean", 30, "mean job service time, seconds (exponential, truncated)")
	fs.StringVar(&opt.Policy, "policy", "satori", "per-node partitioning policy ("+strings.Join(satori.PolicyNames(), ", ")+")")
	fs.StringVar(&opt.Placer, "placer", "round-robin", "job placement strategy ("+strings.Join(fleet.PlacerNames(), ", ")+")")
	fs.Uint64Var(&opt.Seed, "seed", 1, "fleet seed; equal seeds replay identically")
	seconds := fs.Float64("seconds", 60, "run length in simulated seconds")
	fs.IntVar(&opt.Workers, "workers", 0, "node-stepping pool size (0 = one per CPU, 1 = serial)")
	suite := fs.String("suite", "parsec", "workload pool jobs draw from (parsec|cloudsuite|ecp)")
	fs.IntVar(&opt.MaxJobsPerNode, "max-jobs", 5, "max co-located jobs per node")
	csvPath := fs.String("csv", "", "write the per-tick fleet trace to this CSV file")
	fs.IntVar(&opt.Shards, "shards", 1, "POP-style placement shards (clamped to the node count)")
	fs.BoolVar(&opt.EventDriven, "event-driven", false,
		"let phase-stable nodes defer detailed ticks (coarse batched catch-up)")
	if err := fs.Parse(args); err != nil {
		return fleet.Options{}, 0, "", err
	}
	if fs.NArg() > 0 {
		return fleet.Options{}, 0, "", fmt.Errorf("%w %q", errArgs, fs.Arg(0))
	}

	switch {
	case !positive(opt.Stream.ArrivalRate):
		return fleet.Options{}, 0, "", fmt.Errorf("-arrival-rate %v: must be a finite number of jobs/s > 0", opt.Stream.ArrivalRate)
	case !positive(opt.Stream.DurationMean):
		return fleet.Options{}, 0, "", fmt.Errorf("-duration-mean %v: must be a finite number of seconds > 0", opt.Stream.DurationMean)
	case opt.Shards < 1:
		return fleet.Options{}, 0, "", fmt.Errorf("-shards %d: must be >= 1", opt.Shards)
	case opt.MaxJobsPerNode < 1:
		return fleet.Options{}, 0, "", fmt.Errorf("-max-jobs %d: must be >= 1", opt.MaxJobsPerNode)
	case opt.Workers < 0:
		return fleet.Options{}, 0, "", fmt.Errorf("-workers %d: must be >= 0 (0 = one per CPU, 1 = serial)", opt.Workers)
	}
	ticks, err := stack.Ticks("seconds", *seconds)
	if err != nil {
		return fleet.Options{}, 0, "", err
	}
	if opt.Stream.Profiles, err = satori.Suite(*suite); err != nil {
		return fleet.Options{}, 0, "", err
	}
	return opt, ticks, *csvPath, nil
}

// errArgs is a positional argument on the command line: the flags take
// none, so one is a flag given without its value, which swallowed the next
// flag. main exits 2 on it, as the flag package does on a flag it refuses.
var errArgs = errors.New("unexpected argument")

// positive reports whether x is a finite number above zero (NaN is not).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
