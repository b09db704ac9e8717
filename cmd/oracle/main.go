// Command oracle runs the brute-force configuration search of Sec. IV on
// a chosen job mix: the offline, perfect-knowledge reference the paper
// normalizes every result against. It prints the throughput-optimal,
// fairness-optimal and balanced-optimal configurations for the mix's
// initial phase state, with their scores and mutual distances.
//
// The job set is -workloads or a -suite mix, resolved and refused exactly
// as cmd/satori resolves them (internal/stack); with neither, it is PARSEC
// mix -mix.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"satori/internal/harness"
	"satori/internal/metrics"
	"satori/internal/policies/oracle"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stack"
)

func main() {
	err := run(os.Stdout, flag.CommandLine, os.Args[1:])
	if errors.Is(err, errArgs) {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// errArgs is a positional argument on the command line: the flags take
// none, so one is a flag given without its value, which swallowed the next
// flag. main exits 2 on it, as the flag package does on a flag it refuses.
var errArgs = errors.New("unexpected argument")

// run parses args on fs and writes the search's report to w.
func run(w io.Writer, fs *flag.FlagSet, args []string) error {
	var spec stack.Spec
	fs.StringVar(&spec.Workloads, "workloads", "", "comma-separated benchmark names")
	fs.StringVar(&spec.Suite, "suite", "", "pick a paper mix from this suite instead (parsec|cloudsuite|ecp; default parsec without -workloads)")
	fs.IntVar(&spec.Mix, "mix", 0, "paper mix index within -suite")
	warmup := fs.Float64("warmup", 0, "advance this many simulated seconds before searching")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%w %q", errArgs, fs.Arg(0))
	}
	if spec.Workloads == "" && spec.Suite == "" {
		spec.Suite = "parsec"
	}
	profiles, err := spec.Jobs()
	if err != nil {
		return err
	}
	warmupTicks, err := stack.Ticks("warmup", *warmup)
	if err != nil {
		return err
	}

	s, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: *seed, NoiseSigma: -1})
	if err != nil {
		return err
	}
	for i := 0; i < warmupTicks; i++ {
		s.Step()
	}
	space := s.Space()
	fmt.Fprintf(w, "space: %.0f configurations\n", space.Size())

	met := harness.DefaultMetrics()
	sr := oracle.NewSearcher(s, oracle.Options{
		Seed: *seed, ThroughputMetric: met.Throughput, FairnessMetric: met.Fairness,
	})
	score := func(c resource.Config) (float64, float64, error) {
		ips, err := s.ExactIPS(c)
		if err != nil {
			return 0, 0, err
		}
		iso := s.ExactIsolated()
		return metrics.NormalizedThroughput(met.Throughput, ips, iso),
			metrics.NormalizedFairness(met.Fairness, ips, iso), nil
	}

	eq := space.EqualSplit()
	tEq, fEq, err := score(eq)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-20s T=%.4f F=%.4f  %s\n", "equal-split", tEq, fEq, space.String(eq))
	var configs []resource.Config
	for _, goal := range []oracle.Goal{oracle.Throughput, oracle.Fairness, oracle.Balanced} {
		wT, wF := goal.Weights()
		best, _ := sr.Search(wT, wF)
		t, f, err := score(best)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-20s T=%.4f F=%.4f  %s\n", goal.String(), t, f, space.String(best))
		configs = append(configs, best)
	}
	fmt.Fprintf(w, "\ndistance(T-opt, F-opt) = %.2f units (max possible %.2f)\n",
		resource.Distance(configs[0], configs[1]), space.MaxDistance())
	return nil
}
