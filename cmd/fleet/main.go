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
//	fleet -nodes 64 -sweep-shards 1,4,16,64   # placement quality vs k
//
// Any -workers value produces byte-identical output; parallelism only
// changes wall-clock time. -shards splits placement into POP-style
// independent subproblems, and -event-driven lets phase-stable nodes
// defer detailed ticks; both trade a documented amount of fidelity for
// fleet-scale throughput.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"satori"
	"satori/internal/fleet"
	"satori/internal/harness"
	"satori/internal/stack"
)

func main() {
	nodes := flag.Int("nodes", 4, "cluster size")
	arrivalRate := flag.Float64("arrival-rate", 0.5, "fleet-wide Poisson job arrival rate, jobs/second")
	durationMean := flag.Float64("duration-mean", 30, "mean job service time, seconds (exponential, truncated)")
	policyName := flag.String("policy", "satori", "per-node partitioning policy ("+strings.Join(satori.PolicyNames(), ", ")+")")
	placerName := flag.String("placer", "round-robin", "job placement strategy ("+strings.Join(fleet.PlacerNames(), ", ")+")")
	seed := flag.Uint64("seed", 1, "fleet seed; equal seeds replay identically")
	seconds := flag.Float64("seconds", 60, "run length in simulated seconds")
	envWorkers, envErr := harness.WorkersFromEnv()
	workers := flag.Int("workers", envWorkers,
		"node-stepping pool size (0 = one per CPU, 1 = serial; default from SATORI_PARALLEL)")
	suite := flag.String("suite", "parsec", "workload pool jobs draw from (parsec|cloudsuite|ecp)")
	maxJobs := flag.Int("max-jobs", 5, "max co-located jobs per node")
	csvPath := flag.String("csv", "", "write the per-tick fleet trace to this CSV file")
	shards := flag.Int("shards", 1, "POP-style placement shards (clamped to the node count)")
	eventDriven := flag.Bool("event-driven", false,
		"let phase-stable nodes defer detailed ticks (coarse batched catch-up)")
	sweepShards := flag.String("sweep-shards", "",
		"comma-separated shard counts; runs the placement-quality sweep and prints a table instead of a single run")
	flag.Parse()
	if envErr != nil {
		log.Fatal(envErr)
	}

	profiles, err := satori.Suite(*suite)
	if err != nil {
		log.Fatal(err)
	}
	opt := fleet.Options{
		Nodes:          *nodes,
		Policy:         *policyName,
		Placer:         *placerName,
		Seed:           *seed,
		Workers:        *workers,
		MaxJobsPerNode: *maxJobs,
		Shards:         *shards,
		EventDriven:    *eventDriven,
		Stream: fleet.StreamOptions{
			ArrivalRate:  *arrivalRate,
			DurationMean: *durationMean,
			Profiles:     profiles,
		},
	}
	ticks := stack.Ticks(*seconds)

	if *sweepShards != "" {
		var counts []int
		for _, f := range strings.Split(*sweepShards, ",") {
			var k int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &k); err != nil || k < 1 {
				log.Fatalf("bad -sweep-shards entry %q", f)
			}
			counts = append(counts, k)
		}
		rows, err := fleet.SweepShards(opt, counts, ticks)
		if err != nil {
			log.Fatal(err)
		}
		if err := fleet.WriteShardSweep(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		return
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
		*nodes, cluster.ShardCount(), map[bool]string{true: ", event-driven", false: ""}[*eventDriven],
		*policyName, *placerName, *arrivalRate, *durationMean)
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

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := cluster.Series().WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("trace written to", *csvPath)
	}
}
