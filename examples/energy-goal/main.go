// Energy goal: the paper notes SATORI's objective is extensible beyond
// throughput and fairness (e.g. energy efficiency) and that the engine
// can also manage a RAPL-style power cap. This example enables the power
// resource on the machine (four partitionable resources) and compares
// SATORI against the equal-split baseline under a constrained socket
// power budget.
package main

import (
	"fmt"
	"log"

	"satori"
)

func run(policy, label string, machine satori.MachineSpec, jobs []*satori.Workload) satori.Summary {
	build, err := satori.NewPolicyByName(policy, 21)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := satori.NewSession(satori.SessionConfig{
		Machine:   &machine,
		Workloads: jobs,
		Policy:    build,
		Seed:      21,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sess.Run(600); err != nil {
		log.Fatal(err)
	}
	sum := sess.Summary()
	fmt.Printf("%-12s %s\n", label, sum)
	return sum
}

func main() {
	machine := satori.DefaultMachine()
	machine.PowerUnits = 8 // enable RAPL-style power-cap partitioning

	ecp, err := satori.Suite(satori.SuiteECP)
	if err != nil {
		log.Fatal(err)
	}
	jobs := ecp[:3] // minife + xsbench + swfft

	fmt.Println("machine resources: cores=10 llc-ways=11 mem-bw=10 power=8")
	fmt.Println("jobs:", jobs[0].Name, jobs[1].Name, jobs[2].Name)

	static := run("static", "equal-split", machine, jobs)
	sat := run("satori", "satori", machine, jobs)

	fmt.Printf("satori vs equal split: throughput %+.1f%%, fairness %+.1f%%\n",
		(sat.MeanThroughput/static.MeanThroughput-1)*100,
		(sat.MeanFairness/static.MeanFairness-1)*100)
	fmt.Println("SATORI shifts power shares toward the frequency-sensitive jobs")
	fmt.Println("(minife's PowerSensitivity is high; xsbench is latency-bound and barely cares)")
}
