// Command mixes lists the paper's job-mix enumerations: 21 PARSEC mixes
// of 5 jobs, 10 CloudSuite mixes of 3, 10 ECP mixes of 2, with the
// configuration-space size each mix induces on the default machine.
//
// With -lc-frac it instead generates mixed batch+latency-critical mixes
// (workloads.MixedMixes): each mix holds ceil(jobs·frac) LC services
// with per-instance scaled p99 targets next to distinct batch jobs.
// The listing is reproducible from the flags alone.
//
// -json writes profiles instead of a listing, in the schema -profiles
// reads (cmd/satori, cmd/satorid): every generated profile, SLO sections
// included, with -lc-frac, or one suite's profiles with -suite (lc, the
// latency-critical services, included). It is the command-line producer
// of profile JSON.
//
// Usage:
//
//	mixes                                  # every paper mix
//	mixes -suite parsec -json > jobs.json  # a suite's profiles, to edit
//	mixes -lc-frac 0.4 -json > lc.json     # generated batch+LC mixes
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"satori/internal/sim"
	"satori/internal/workloads"
)

func main() {
	if err := run(os.Stdout, flag.CommandLine, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses args on fs and writes what they ask for to w.
func run(w io.Writer, fs *flag.FlagSet, args []string) error {
	suite := fs.String("suite", "", "limit to one suite (parsec|cloudsuite|ecp; with -json also lc); batch suite for -lc-frac")
	lcFrac := fs.Float64("lc-frac", 0, "generate mixed batch+LC mixes with this latency-critical slot fraction, in (0, 1] (0 = paper mixes)")
	jobs := fs.Int("jobs", 5, "co-location size for generated mixed mixes")
	count := fs.Int("count", 10, "how many mixed mixes to generate")
	seed := fs.Uint64("seed", 1, "seed for mixed-mix generation; equal flags reproduce equal mixes")
	scaleMin := fs.Float64("slo-scale-min", 1, "lower bound of the uniform per-job p99 target scaling")
	scaleMax := fs.Float64("slo-scale-max", 1, "upper bound of the uniform per-job p99 target scaling")
	jsonOut := fs.Bool("json", false, "write the -lc-frac mixes' or the -suite's profiles as a -profiles JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *lcFrac != 0:
		return listMixed(w, *suite, *lcFrac, *jobs, *count, *seed, *scaleMin, *scaleMax, *jsonOut)
	case *jsonOut && *suite == "":
		return fmt.Errorf("-json needs -suite (a suite's profiles) or -lc-frac (generated mixes)")
	case *jsonOut:
		profiles, ok := workloads.Suites()[*suite]
		if !ok {
			return fmt.Errorf("-suite %q: no such suite (parsec|cloudsuite|ecp|lc)", *suite)
		}
		return workloads.WriteProfiles(w, profiles)
	}

	suites := []string{workloads.SuitePARSEC, workloads.SuiteCloudSuite, workloads.SuiteECP}
	if *suite != "" {
		suites = []string{*suite}
	}
	machine := sim.DefaultMachine()
	for _, name := range suites {
		mixes, err := workloads.PaperMixes(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s: %d mixes of %d jobs ==\n", name, len(mixes), len(mixes[0].Profiles))
		for _, m := range mixes {
			space, err := machine.Space(len(m.Profiles))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  mix %2d: %-70s %12.0f configs\n",
				m.Index, strings.Join(m.Names(), "+"), space.Size())
		}
	}
	return nil
}

func listMixed(w io.Writer, suite string, frac float64, jobs, count int, seed uint64, scaleMin, scaleMax float64, jsonOut bool) error {
	mixes, err := workloads.MixedMixes(workloads.MixedMixOptions{
		Suite: suite, Jobs: jobs, LCFraction: frac, Count: count, Seed: seed,
		TargetScaleMin: scaleMin, TargetScaleMax: scaleMax,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		// One flat profile list per run: mix boundaries are recoverable
		// from -jobs, and duplicate LC instances carry distinct names.
		var ps []*sim.Profile
		for _, m := range mixes {
			ps = append(ps, m.Profiles...)
		}
		return workloads.WriteProfiles(w, ps)
	}
	fmt.Fprintf(w, "== mixed batch+lc: %d mixes of %d jobs (lc-frac %.2f, seed %d) ==\n",
		len(mixes), jobs, frac, seed)
	for _, m := range mixes {
		var parts []string
		for _, p := range m.Profiles {
			if p.SLO != nil {
				parts = append(parts, fmt.Sprintf("%s[p99<=%.0fms]", p.Name, p.SLO.TargetP99*1000))
			} else {
				parts = append(parts, p.Name)
			}
		}
		fmt.Fprintf(w, "  mix %2d: %s\n", m.Index, strings.Join(parts, "+"))
	}
	return nil
}
