// Command oracle runs the brute-force configuration search of Sec. IV on
// a chosen job mix: the offline, perfect-knowledge reference the paper
// normalizes every result against. It prints the throughput-optimal,
// fairness-optimal and balanced-optimal configurations for the mix's
// initial phase state, with their scores and mutual distances.
package main

import (
	"flag"
	"fmt"
	"log"

	"satori/internal/harness"
	"satori/internal/metrics"
	"satori/internal/policies/oracle"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stack"
	"satori/internal/workloads"
)

func main() {
	workloadList := flag.String("workloads", "", "comma-separated benchmark names")
	suite := flag.String("suite", "parsec", "suite for -mix")
	mixIdx := flag.Int("mix", 0, "paper mix index within -suite")
	warmup := flag.Float64("warmup", 0, "advance this many simulated seconds before searching")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	profiles, err := workloads.Select(*workloadList, *suite, *mixIdx)
	if err != nil {
		log.Fatal(err)
	}
	warmupTicks, err := stack.Ticks("warmup", *warmup)
	if err != nil {
		log.Fatal(err)
	}

	s, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: *seed, NoiseSigma: -1})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < warmupTicks; i++ {
		s.Step()
	}
	space := s.Space()
	fmt.Printf("space: %.0f configurations", space.Size())
	if space.Size() <= 20000 {
		fmt.Println(" (exhaustive search)")
	} else {
		fmt.Println(" (multi-restart hill climbing)")
	}

	met := harness.DefaultMetrics()
	sr := oracle.NewSearcher(s, oracle.Options{
		Seed: *seed, ThroughputMetric: met.Throughput, FairnessMetric: met.Fairness,
	})
	score := func(c resource.Config) (float64, float64) {
		ips, err := s.ExactIPS(c)
		if err != nil {
			log.Fatal(err)
		}
		iso := s.ExactIsolated()
		return metrics.NormalizedThroughput(met.Throughput, ips, iso),
			metrics.NormalizedFairness(met.Fairness, ips, iso)
	}

	eq := space.EqualSplit()
	tEq, fEq := score(eq)
	fmt.Printf("\n%-20s T=%.4f F=%.4f  %s\n", "equal-split", tEq, fEq, space.String(eq))
	var configs []resource.Config
	for _, goal := range []oracle.Goal{oracle.Throughput, oracle.Fairness, oracle.Balanced} {
		wT, wF := goal.Weights()
		best, _ := sr.Search(wT, wF)
		t, f := score(best)
		fmt.Printf("%-20s T=%.4f F=%.4f  %s\n", goal.String(), t, f, space.String(best))
		configs = append(configs, best)
	}
	fmt.Printf("\ndistance(T-opt, F-opt) = %.2f units (max possible %.2f)\n",
		resource.Distance(configs[0], configs[1]), space.MaxDistance())
}
