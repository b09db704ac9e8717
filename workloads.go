package satori

import (
	"io"

	"satori/internal/harness"
	"satori/internal/workloads"
)

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

// WorkloadNames lists every known benchmark.
func WorkloadNames() []string { return workloads.Names() }

// LoadWorkloads parses workload profiles from JSON (the schema written by
// SaveWorkloads), validating every phase.
func LoadWorkloads(r io.Reader) ([]*Workload, error) { return workloads.ReadProfiles(r) }

// SaveWorkloads serializes workload profiles as indented JSON, suitable
// for editing by hand and reloading with LoadWorkloads.
func SaveWorkloads(w io.Writer, profiles []*Workload) error {
	return workloads.WriteProfiles(w, profiles)
}

// Mix is one co-location job mix.
type Mix = workloads.Mix

// Mixes enumerates all k-of-n combinations of profiles in deterministic
// order (the paper's job-mix construction).
func Mixes(profiles []*Workload, k int) ([]Mix, error) { return workloads.Mixes(profiles, k) }

// PaperMixes returns the paper's mix sets: 21 PARSEC mixes of 5 jobs,
// 10 CloudSuite mixes of 3, 10 ECP mixes of 2.
func PaperMixes(suite string) ([]Mix, error) { return workloads.PaperMixes(suite) }

// MixedMixOptions parameterizes MixedMixes.
type MixedMixOptions = workloads.MixedMixOptions

// MixedMixes generates reproducible mixed batch+latency-critical
// co-location mixes: each holds ceil(Jobs·LCFraction) LC services with
// per-instance scaled p99 targets next to distinct batch jobs.
func MixedMixes(opt MixedMixOptions) ([]Mix, error) { return workloads.MixedMixes(opt) }

// Experiment re-exports the figure-reproduction registry entry.
type Experiment = harness.Experiment

// ExperimentOptions sizes a figure reproduction.
type ExperimentOptions = harness.ExpOptions

// ExperimentReport is a reproduced figure/table.
type ExperimentReport = harness.Report

// Experiments lists every figure reproduction, in paper order.
func Experiments() []Experiment { return harness.Experiments() }

// RunExperiment reproduces one paper figure by ID (e.g. "fig7").
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentReport, error) {
	e, ok := harness.FindExperiment(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(opt)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "satori: unknown experiment " + string(e) + " (see Experiments())"
}
