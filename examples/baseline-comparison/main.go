// Baseline comparison: run the same CloudSuite job mix under every
// competing technique of Sec. IV — Random, dCAT, CoPart, PARTIES,
// SATORI — plus the Balanced Oracle ceiling, and print each one's
// run-average throughput and fairness (the Fig. 7/12 presentation for a
// single mix).
package main

import (
	"fmt"
	"log"

	"satori"
)

func main() {
	mixes, err := satori.PaperMixes(satori.SuiteCloudSuite)
	if err != nil {
		log.Fatal(err)
	}
	mix := mixes[0] // data-analytics + graph-analytics + in-memory-analytics
	fmt.Println("job mix:", mix.Names())

	// The last name is the ceiling the others are measured against.
	names := []string{"random", "dcat", "copart", "parties", "satori", "balanced-oracle"}

	type row struct {
		name    string
		summary satori.Summary
	}
	var rows []row
	for _, name := range names {
		policy, err := satori.NewPolicyByName(name, 11)
		if err != nil {
			log.Fatal(err)
		}
		sess, err := satori.NewSession(satori.SessionConfig{
			Workloads: mix.Profiles,
			Policy:    policy,
			Seed:      11, // identical seed -> identical workload noise
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sess.Run(600); err != nil {
			log.Fatal(err)
		}
		rows = append(rows, row{name, sess.Summary()})
	}

	oracle := rows[len(rows)-1].summary
	fmt.Printf("%-16s %-11s %-9s %-14s %s\n", "policy", "throughput", "fairness", "%oracle T", "%oracle F")
	for _, r := range rows {
		fmt.Printf("%-16s %-11.3f %-9.3f %-14.1f %.1f\n",
			r.name, r.summary.MeanThroughput, r.summary.MeanFairness,
			r.summary.MeanThroughput/oracle.MeanThroughput*100,
			r.summary.MeanFairness/oracle.MeanFairness*100)
	}
}
