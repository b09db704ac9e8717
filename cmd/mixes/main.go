// Command mixes lists the paper's job-mix enumerations: 21 PARSEC mixes
// of 5 jobs, 10 CloudSuite mixes of 3, 10 ECP mixes of 2, with the
// configuration-space size each mix induces on the default machine.
//
// With -lc-frac it instead generates mixed batch+latency-critical mixes
// (workloads.MixedMixes): each mix holds ceil(jobs·frac) LC services
// with per-instance scaled p99 targets next to distinct batch jobs.
// The listing is reproducible from the flags alone; -json additionally
// dumps every generated profile (SLO sections included) so a mix can be
// fed back through -workloads files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"satori/internal/sim"
	"satori/internal/workloads"
)

func main() {
	suite := flag.String("suite", "", "limit to one suite (parsec|cloudsuite|ecp); batch suite for -lc-frac")
	lcFrac := flag.Float64("lc-frac", 0, "generate mixed batch+LC mixes with this latency-critical slot fraction, in (0, 1] (0 = paper mixes)")
	jobs := flag.Int("jobs", 5, "co-location size for generated mixed mixes")
	count := flag.Int("count", 10, "how many mixed mixes to generate")
	seed := flag.Uint64("seed", 1, "seed for mixed-mix generation; equal flags reproduce equal mixes")
	scaleMin := flag.Float64("slo-scale-min", 1, "lower bound of the uniform per-job p99 target scaling")
	scaleMax := flag.Float64("slo-scale-max", 1, "upper bound of the uniform per-job p99 target scaling")
	jsonOut := flag.Bool("json", false, "with -lc-frac, dump the generated profiles as a -workloads JSON file")
	flag.Parse()

	if *lcFrac != 0 {
		listMixed(*suite, *lcFrac, *jobs, *count, *seed, *scaleMin, *scaleMax, *jsonOut)
		return
	}

	suites := []string{workloads.SuitePARSEC, workloads.SuiteCloudSuite, workloads.SuiteECP}
	if *suite != "" {
		suites = []string{*suite}
	}
	machine := sim.DefaultMachine()
	for _, name := range suites {
		mixes, err := workloads.PaperMixes(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %d mixes of %d jobs ==\n", name, len(mixes), len(mixes[0].Profiles))
		for _, m := range mixes {
			space, err := machine.Space(len(m.Profiles))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  mix %2d: %-70s %12.0f configs\n",
				m.Index, strings.Join(m.Names(), "+"), space.Size())
		}
	}
}

func listMixed(suite string, frac float64, jobs, count int, seed uint64, scaleMin, scaleMax float64, jsonOut bool) {
	mixes, err := workloads.MixedMixes(workloads.MixedMixOptions{
		Suite: suite, Jobs: jobs, LCFraction: frac, Count: count, Seed: seed,
		TargetScaleMin: scaleMin, TargetScaleMax: scaleMax,
	})
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		// One flat profile list per run: mix boundaries are recoverable
		// from -jobs, and duplicate LC instances carry distinct names.
		var ps []*sim.Profile
		for _, m := range mixes {
			ps = append(ps, m.Profiles...)
		}
		if err := workloads.WriteProfiles(os.Stdout, ps); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("== mixed batch+lc: %d mixes of %d jobs (lc-frac %.2f, seed %d) ==\n",
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
		fmt.Printf("  mix %2d: %s\n", m.Index, strings.Join(parts, "+"))
	}
}
