package satori_test

import (
	"fmt"

	"satori"
)

// ExampleNewSession shows the minimal SATORI loop: co-locate jobs, step
// the session at 10 Hz, read the summary.
func ExampleNewSession() {
	jobs, _ := satori.Suite(satori.SuitePARSEC)
	sess, err := satori.NewSession(satori.SessionConfig{
		Workloads:  jobs[:3],
		Seed:       1,
		NoiseSigma: -1, // deterministic output for the example
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	if _, err := sess.Run(50); err != nil { // 5 simulated seconds
		fmt.Println(err)
		return
	}
	fmt.Println("jobs:", sess.JobNames())
	fmt.Println("ticks:", sess.Summary().Ticks)
	// Output:
	// jobs: [blackscholes canneal fluidanimate]
	// ticks: 50
}

// ExampleSession_RemoveWorkload demonstrates a workload-mix change
// (Algorithm 1 line 12): a job departs and a new one arrives, and the
// session re-splits the partition and rebuilds SATORI on the new space.
func ExampleSession_RemoveWorkload() {
	jobs, _ := satori.Suite(satori.SuiteECP)
	sess, _ := satori.NewSession(satori.SessionConfig{
		Workloads: jobs[:2], Seed: 1, NoiseSigma: -1,
	})
	sess.Run(20)
	arrival, _ := satori.WorkloadByName("amg")
	if err := sess.RemoveWorkload(1); err != nil {
		fmt.Println(err)
		return
	}
	if err := sess.AddWorkload(arrival); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("jobs now:", sess.JobNames())
	// Output:
	// jobs now: [minife amg]
}

// ExamplePaperMixes enumerates the paper's job-mix sets.
func ExamplePaperMixes() {
	mixes, _ := satori.PaperMixes(satori.SuitePARSEC)
	fmt.Println("PARSEC mixes:", len(mixes))
	fmt.Println("mix 0:", mixes[0].Names())
	// Output:
	// PARSEC mixes: 21
	// mix 0: [blackscholes canneal fluidanimate freqmine streamcluster]
}
