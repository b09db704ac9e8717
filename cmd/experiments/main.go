// Command experiments regenerates the SATORI paper's figures and tables
// on the simulated testbed (see DESIGN.md §5 for the experiment index).
//
// Usage:
//
//	experiments -list                  # show available experiment IDs
//	experiments -run fig7              # reproduce one figure
//	experiments -run fig7,fig8         # several
//	experiments -all                   # everything (minutes of runtime)
//	experiments -ticks 300 -mixes 5    # reduced scale for quick looks
//	experiments -parallel 4 -run fig7  # bound the worker pool (0 = all CPUs)
//
// Any -parallel value (default 0: one per CPU) produces the same output
// byte for byte — parallelism only changes wall-clock time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"satori/internal/harness"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	runIDs := flag.String("run", "", "comma-separated experiment IDs to run")
	all := flag.Bool("all", false, "run every experiment")
	ticks := flag.Int("ticks", 600, "run length per policy run, in 100ms ticks")
	seed := flag.Uint64("seed", 42, "base random seed")
	mixes := flag.Int("mixes", 0, "cap the number of job mixes per suite (0 = paper scale)")
	csvDir := flag.String("csv", "", "also write each experiment's tables as CSV files into this directory")
	cacheDir := flag.String("cache", "", "memoize suite cells in this directory; repeated reproductions skip unchanged (policy, mix, seed) runs")
	parallel := flag.Int("parallel", 0, "worker pool size for independent runs (0 = one per CPU, 1 = serial)")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}
	var selected []harness.Experiment
	switch {
	case *all:
		selected = harness.Experiments()
	case *runIDs != "":
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.FindExperiment(id)
			if !ok {
				log.Fatalf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -run <ids>, -all, or -list")
		os.Exit(2)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	opt, err := expOptions(*ticks, *seed, *mixes, *parallel)
	if err != nil {
		log.Fatal(err)
	}
	if *cacheDir != "" {
		cache, err := harness.NewCellCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		opt.Cache = cache
		defer func() {
			hits, misses, _ := cache.Stats()
			fmt.Printf("cell cache: %d hits, %d runs stored\n", hits, misses)
		}()
	}
	for _, e := range selected {
		start := time.Now()
		rep, err := e.Run(opt)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			for i, tbl := range rep.Tables {
				path := fmt.Sprintf("%s/%s_%d.csv", *csvDir, rep.ID, i)
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := tbl.WriteCSV(f); err != nil {
					log.Fatal(err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
}

// expOptions checks the four numeric flags before they reach
// harness.ExpOptions, whose zero values select defaults: -seed 0 would run
// seed 42, -ticks 0 or below 600 ticks, and a negative -mixes the paper's
// full scale.
func expOptions(ticks int, seed uint64, mixes, parallel int) (harness.ExpOptions, error) {
	switch {
	case ticks < 1:
		return harness.ExpOptions{}, fmt.Errorf("-ticks %d: must be >= 1", ticks)
	case seed == 0:
		return harness.ExpOptions{}, fmt.Errorf("-seed 0: must be >= 1")
	case mixes < 0:
		return harness.ExpOptions{}, fmt.Errorf("-mixes %d: must be >= 0 (0 = paper scale)", mixes)
	case parallel < 0:
		return harness.ExpOptions{}, fmt.Errorf("-parallel %d: must be >= 0 (0 = one per CPU, 1 = serial)", parallel)
	}
	return harness.ExpOptions{Ticks: ticks, Seed: seed, MixLimit: mixes, Workers: parallel}, nil
}
