// Command satori runs one co-location session: pick workloads, pick a
// partitioning policy, pick a backend, and watch the throughput and
// fairness scores evolve at 10 Hz.
//
// The stack flags (jobs, policy, backend, faults — internal/stack) are
// cmd/satorid's too. The default backend simulates the paper's testbed;
// -backend resctrl drives the Linux resctrl filesystem layout: point
// -resctrl-root at /sys/fs/resctrl on a CAT/MBA machine (privileged) to
// partition it for real, or at any scratch directory for the identical
// control path, hermetically. Per-job IPS comes from a recorded -trace
// (rdt.ReadIPSTrace), or without one from a trace the simulator writes.
// Custom jobs come from a -profiles JSON file; cmd/mixes writes one
// (mixes -suite parsec -json) to start from.
//
// Usage:
//
//	satori -workloads canneal,swaptions,streamcluster -policy satori -seconds 60
//	satori -suite parsec -mix 0 -policy parties
//	satori -workloads amg,hypre -policy balanced-oracle -csv run.csv
//	satori -profiles my-jobs.json -policy satori
//	satori -backend resctrl -resctrl-root $(mktemp -d) -suite parsec -seconds 5
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"satori"
	"satori/internal/rdt"
	"satori/internal/stack"
	"satori/internal/trace"
)

func main() {
	var spec stack.Spec
	spec.Register(flag.CommandLine)
	seconds := flag.Float64("seconds", 60, "run length in simulated seconds")
	csvPath := flag.String("csv", "", "write the per-tick trace to this CSV file")
	flag.Parse()

	ticks, err := stack.Ticks("seconds", *seconds)
	if err != nil {
		log.Fatal(err)
	}
	loop, err := spec.Build(ticks)
	if err != nil {
		log.Fatal(err)
	}
	platform := loop.Platform()
	fmt.Printf("backend: %s\njobs: %v\npolicy: %s\nspace: %.0f configurations\n",
		spec.Backend, platform.JobNames(), spec.Policy, platform.Space().Size())

	series := trace.NewSeries("time", "throughput", "fairness")
	report := max(ticks/10, 1)
	for i := 1; i <= ticks; i++ {
		st, err := loop.Step()
		if err != nil {
			log.Fatal(err)
		}
		series.Add(st.Time, st.Throughput, st.Fairness)
		if i%report == 0 {
			fmt.Printf("t=%6.1fs  throughput=%.3f  fairness=%.3f\n", st.Time, st.Throughput, st.Fairness)
		}
	}
	fmt.Println(loop.Summary())
	if eng, ok := loop.Policy().(*satori.Engine); ok {
		w := eng.LastWeights()
		fmt.Printf("weights: W_T=%.2f W_F=%.2f; configurations explored: %d\n", w.T, w.F, eng.Records().Len())
	}
	if rp, ok := rdt.As[*rdt.ResctrlPlatform](platform); ok {
		reportResctrl(rp, spec.ResctrlRoot)
	}
	if *csvPath != "" {
		var csv bytes.Buffer
		series.WriteCSV(&csv) // a buffer takes every write
		if err := os.WriteFile(*csvPath, csv.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("trace written to", *csvPath)
	}
}

// reportResctrl prints where the control groups landed and round-trips
// one group through ReadGroup so a live deployment can be spot-checked.
func reportResctrl(p *rdt.ResctrlPlatform, root string) {
	njobs := p.Space().Jobs
	groups := njobs
	if g := p.Grouping(); g != nil {
		groups = g.Clusters
		fmt.Printf("resctrl: %d jobs clustered onto %d control groups (%s)\n", njobs, groups, g)
	}
	fmt.Printf("resctrl: %d control groups under %s\n", groups, root)
	ja, err := p.ReadGroup(0)
	if err != nil {
		fmt.Println("resctrl: read-back failed:", err)
		return
	}
	fmt.Printf("resctrl: job 0 schemata round-trip: L3 mask %#x, MB %d%%, cpus %s\n",
		ja.CATMask, ja.MBAPercent, rdt.FormatCPUList(ja.CPUSet))
}
