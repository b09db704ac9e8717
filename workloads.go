package satori

import "satori/internal/workloads"

// Benchmark suite names.
const (
	SuitePARSEC     = workloads.SuitePARSEC
	SuiteCloudSuite = workloads.SuiteCloudSuite
	SuiteECP        = workloads.SuiteECP
	SuiteLC         = workloads.SuiteLC
)

// Suite returns fresh copies of a benchmark suite's workload profiles
// (PARSEC: 7, CloudSuite: 5, ECP: 5 — Tables I-III of the paper — plus
// the 3-service latency-critical suite).
func Suite(name string) ([]*Workload, error) {
	if profiles, ok := workloads.Suites()[name]; ok {
		return profiles, nil
	}
	// Delegate the error formatting.
	_, err := workloads.PaperMixes(name)
	return nil, err
}

// WorkloadByName returns a fresh copy of any known benchmark profile.
func WorkloadByName(name string) (*Workload, error) { return workloads.ByName(name) }

// Mix is one co-location job mix.
type Mix = workloads.Mix

// PaperMixes returns the paper's mix sets: 21 PARSEC mixes of 5 jobs,
// 10 CloudSuite mixes of 3, 10 ECP mixes of 2.
func PaperMixes(suite string) ([]Mix, error) { return workloads.PaperMixes(suite) }
