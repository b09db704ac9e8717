// Package workloads defines synthetic performance profiles for every
// benchmark the SATORI paper evaluates: the 7 PARSEC workloads of Table I
// (plus vips, used throughout Sec. V), the 5 CloudSuite workloads of
// Table II and the 5 ECP proxy apps of Table III.
//
// Each profile encodes the benchmark's published resource character as a
// looping schedule of sim.Phase values — core (Amdahl) scaling, LLC
// miss-ratio curve, bandwidth demand — following the paper's own
// characterizations where it gives them (e.g. fluidanimate is strongly
// core-sensitive, blackscholes and fluidanimate contend for memory
// bandwidth, miniFE has intensive compute and LLC requirements, AMG and
// Hypre have near-identical demands). The profiles are a substitution for
// running the real binaries (see DESIGN.md §1): the evaluation only
// depends on each job's time-varying sensitivity to the partitioned
// resources, which is exactly what a profile expresses.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"satori/internal/sim"
)

// Suite names used in Profile.Suite.
const (
	SuitePARSEC     = "parsec"
	SuiteCloudSuite = "cloudsuite"
	SuiteECP        = "ecp"
	// SuiteLC (the latency-critical suite) is declared in lc.go.
)

// phase builds a sim.Phase from a duration in typical co-located
// wall-clock seconds: under co-location a job runs at roughly 0.3× its
// isolated speed, which is itself around 0.4× the peak rate, so the work
// quantum is scaled by ~0.12×peak. This keeps program phases (and hence
// the drift of the optimal configuration, Fig. 1) on the several-second
// timescale the paper characterizes.
func phase(name string, durSec, ipsPeak, serial, mpiMax, mpiMin, waysHalf, stallCost, powerSens float64) sim.Phase {
	return sim.Phase{
		Name:             name,
		Instructions:     durSec * ipsPeak * 0.12,
		IPSPeak:          ipsPeak,
		SerialFrac:       serial,
		MPIMax:           mpiMax,
		MPIMin:           mpiMin,
		WaysHalf:         waysHalf,
		MemStallCost:     stallCost,
		PowerSensitivity: powerSens,
	}
}

// PARSEC returns the 7 PARSEC profiles (Table I plus vips) in canonical
// (alphabetical) order. Fresh copies are returned on every call.
//
// The parameters are tuned for complementary heterogeneity — the property
// the paper's evaluation depends on: compute-scalers convert cores into
// IPS, cache-lovers convert LLC ways, streamers convert bandwidth, and
// each is nearly indifferent to the resources it does not need. Matching
// resources to demands is therefore positive-sum (throughput AND fairness
// can both improve over the equal split), while greedy throughput
// maximization still conflicts with fairness by over-feeding the
// highest-IPS jobs.
func PARSEC() []*sim.Profile {
	return []*sim.Profile{
		{
			// Option pricing over streaming option batches:
			// bandwidth-hungry (Sec. V: "blackscholes and
			// fluidanimate both contend for ... memory
			// bandwidth"), prefetch-friendly (low stall cost),
			// limited core scaling past the memory wall.
			Name: "blackscholes", Suite: SuitePARSEC,
			Phases: []sim.Phase{
				phase("price", 8, 2.6e10, 0.30, 0.040, 0.034, 1.2, 25, 0.60),
				phase("sweep", 5, 2.2e10, 0.24, 0.050, 0.042, 1.2, 25, 0.55),
			},
		},
		{
			// Simulated annealing on a chip netlist: enormous
			// working set, random access, strongly cache-sensitive
			// and latency-bound; poor core scaling.
			Name: "canneal", Suite: SuitePARSEC,
			Phases: []sim.Phase{
				phase("anneal", 10, 2.0e10, 0.50, 0.050, 0.004, 4.0, 260, 0.35),
				phase("refine", 6, 2.2e10, 0.42, 0.034, 0.003, 3.2, 240, 0.40),
			},
		},
		{
			// Fluid dynamics: near-linear core scaling (the paper
			// singles out its "high compute-resource (number of
			// cores) sensitivity") with a bandwidth-leaning
			// neighbor-exchange phase.
			Name: "fluidanimate", Suite: SuitePARSEC,
			Phases: []sim.Phase{
				phase("advance", 7, 4.2e10, 0.01, 0.006, 0.004, 1.5, 40, 0.85),
				phase("exchange", 4, 3.2e10, 0.04, 0.026, 0.020, 1.4, 30, 0.60),
				phase("rebuild", 3, 3.6e10, 0.02, 0.008, 0.005, 1.8, 40, 0.70),
			},
		},
		{
			// Frequent itemset mining: cache-friendly FP-tree,
			// modest parallelism — a "small" job that keeps most
			// of its isolated speed even on a sliver of the
			// machine.
			Name: "freqmine", Suite: SuitePARSEC,
			Phases: []sim.Phase{
				phase("build", 6, 1.4e10, 0.45, 0.018, 0.003, 2.2, 160, 0.50),
				phase("mine", 12, 1.6e10, 0.38, 0.012, 0.002, 2.0, 150, 0.55),
			},
		},
		{
			// Online stream clustering: pure streaming, flat
			// miss-ratio curve (cache barely helps), very high
			// bandwidth demand, moderate core scaling.
			Name: "streamcluster", Suite: SuitePARSEC,
			Phases: []sim.Phase{
				phase("stream", 9, 3.0e10, 0.20, 0.046, 0.040, 1.0, 20, 0.60),
				phase("recluster", 4, 2.6e10, 0.28, 0.052, 0.046, 1.0, 22, 0.50),
			},
		},
		{
			// Swaption pricing with Monte Carlo: embarrassingly
			// parallel, tiny working set, almost purely
			// compute-bound — the canonical core-scaler.
			Name: "swaptions", Suite: SuitePARSEC,
			Phases: []sim.Phase{
				phase("simulate", 14, 3.8e10, 0.015, 0.0008, 0.0004, 1.0, 60, 0.90),
			},
		},
		{
			// Image-processing pipeline: alternating compute and
			// memory stages, middling on every axis.
			Name: "vips", Suite: SuitePARSEC,
			Phases: []sim.Phase{
				phase("decode", 4, 2.2e10, 0.18, 0.024, 0.014, 2.0, 90, 0.60),
				phase("convolve", 7, 2.8e10, 0.06, 0.010, 0.006, 1.8, 70, 0.75),
				phase("encode", 4, 1.8e10, 0.30, 0.016, 0.008, 2.2, 100, 0.55),
			},
		},
	}
}

// CloudSuite returns the 5 CloudSuite profiles of Table II, tuned with
// the same complementary-heterogeneity scheme as PARSEC (see the PARSEC
// doc comment).
func CloudSuite() []*sim.Profile {
	return []*sim.Profile{
		{
			// Naive Bayes over Wikipedia: scan-dominated streaming
			// over the corpus — prefetch-friendly, bandwidth-bound,
			// flat miss-ratio curve.
			Name: "data-analytics", Suite: SuiteCloudSuite,
			Phases: []sim.Phase{
				phase("scan", 8, 2.4e10, 0.22, 0.044, 0.038, 1.2, 24, 0.55),
				phase("classify", 5, 3.0e10, 0.03, 0.012, 0.0060, 1.8, 80, 0.70),
			},
		},
		{
			// PageRank on Twitter: random graph access, strongly
			// cache- and latency-sensitive, poor core scaling.
			Name: "graph-analytics", Suite: SuiteCloudSuite,
			Phases: []sim.Phase{
				phase("gather", 9, 1.9e10, 0.48, 0.048, 0.0045, 4.6, 250, 0.40),
				phase("apply", 4, 2.1e10, 0.36, 0.030, 0.0040, 3.6, 220, 0.50),
			},
		},
		{
			// In-memory filtering of movie ratings: large resident
			// set, bandwidth-heavy filter with cached aggregation.
			Name: "in-memory-analytics", Suite: SuiteCloudSuite,
			Phases: []sim.Phase{
				phase("filter", 7, 3.4e10, 0.04, 0.036, 0.026, 2.0, 45, 0.60),
				phase("aggregate", 5, 2.8e10, 0.08, 0.018, 0.0070, 2.8, 120, 0.55),
			},
		},
		{
			// Nginx video streaming: a "small" job — mostly kernel
			// and connection handling with a tiny hot set; it keeps
			// most of its speed on a sliver of the machine.
			Name: "media-streaming", Suite: SuiteCloudSuite,
			Phases: []sim.Phase{
				phase("serve", 12, 1.4e10, 0.55, 0.008, 0.0050, 1.2, 70, 0.65),
				phase("burst", 3, 1.8e10, 0.40, 0.014, 0.0090, 1.2, 60, 0.60),
			},
		},
		{
			// Web search: index lookups against a hot cache-resident
			// index; strongly way-sensitive, modest core scaling.
			Name: "web-search", Suite: SuiteCloudSuite,
			Phases: []sim.Phase{
				phase("query", 8, 2.2e10, 0.34, 0.040, 0.0045, 4.2, 230, 0.50),
				phase("rank", 4, 2.5e10, 0.22, 0.020, 0.0040, 3.0, 170, 0.60),
			},
		},
	}
}

// ECP returns the 5 Exascale-Computing-Project proxy-app profiles of
// Table III.
func ECP() []*sim.Profile {
	return []*sim.Profile{
		{
			// Unstructured finite elements: "intensive compute
			// (high IPC and FLOP rate) and last-level cache (high
			// L1 miss-rate) requirements" (Sec. V) — hungry for
			// both cores and ways.
			Name: "minife", Suite: SuiteECP,
			Phases: []sim.Phase{
				phase("assemble", 6, 4.2e10, 0.015, 0.040, 0.0070, 4.6, 130, 0.80),
				phase("cg-solve", 10, 4.6e10, 0.010, 0.034, 0.0090, 4.0, 110, 0.75),
			},
		},
		{
			// Monte Carlo neutronics macro-XS lookup: giant random
			// tables, nearly cache-insensitive (flat curve),
			// latency-bound with modest core scaling.
			Name: "xsbench", Suite: SuiteECP,
			Phases: []sim.Phase{
				phase("lookup", 12, 2.6e10, 0.04, 0.036, 0.030, 1.1, 140, 0.45),
			},
		},
		{
			// FFT for HACC: high LLC demand in transpose steps plus
			// bandwidth-heavy butterfly sweeps.
			Name: "swfft", Suite: SuiteECP,
			Phases: []sim.Phase{
				phase("butterfly", 5, 3.6e10, 0.02, 0.044, 0.020, 3.4, 50, 0.70),
				phase("transpose", 4, 3.0e10, 0.05, 0.052, 0.026, 3.8, 55, 0.55),
			},
		},
		{
			// Algebraic multigrid: classic bandwidth-bound sparse
			// kernels, prefetch-friendly, limited cache reuse.
			Name: "amg", Suite: SuiteECP,
			Phases: []sim.Phase{
				phase("smooth", 7, 3.2e10, 0.03, 0.050, 0.040, 1.8, 22, 0.55),
				phase("coarsen", 4, 2.7e10, 0.08, 0.044, 0.034, 2.2, 28, 0.50),
			},
		},
		{
			// Hypre linear solvers: the paper notes AMG and Hypre
			// "have similar resource requirements for all
			// resources"; the profile mirrors amg with small
			// offsets.
			Name: "hypre", Suite: SuiteECP,
			Phases: []sim.Phase{
				phase("smooth", 6, 3.1e10, 0.04, 0.048, 0.038, 1.9, 24, 0.55),
				phase("restrict", 5, 2.8e10, 0.07, 0.044, 0.033, 2.1, 26, 0.50),
			},
		},
	}
}

// Suites returns all suites keyed by name (the three batch suites plus
// the latency-critical profiles of lc.go).
func Suites() map[string][]*sim.Profile {
	return map[string][]*sim.Profile{
		SuitePARSEC:     PARSEC(),
		SuiteCloudSuite: CloudSuite(),
		SuiteECP:        ECP(),
		SuiteLC:         LC(),
	}
}

// ByName returns a fresh copy of the named profile from any suite.
func ByName(name string) (*sim.Profile, error) {
	for _, suite := range Suites() {
		for _, p := range suite {
			if p.Name == name {
				return p, nil
			}
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Names returns the sorted names of every known benchmark.
func Names() []string {
	var out []string
	for _, suite := range Suites() {
		for _, p := range suite {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Select resolves the -workloads / -suite / -mix flags the CLIs share: a
// comma-separated benchmark list wins; otherwise the mix of that index
// among the suite's paper mixes.
func Select(list, suite string, mix int) ([]*sim.Profile, error) {
	switch {
	case list != "":
		var profiles []*sim.Profile
		for _, name := range strings.Split(list, ",") {
			p, err := ByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, p)
		}
		return profiles, nil
	case suite != "":
		mixes, err := PaperMixes(suite)
		if err != nil {
			return nil, err
		}
		if mix < 0 || mix >= len(mixes) {
			return nil, fmt.Errorf("mix %d out of range (suite %s has %d)", mix, suite, len(mixes))
		}
		return mixes[mix].Profiles, nil
	}
	return nil, fmt.Errorf("pass -workloads or -suite (see -h); valid workloads: %s",
		strings.Join(Names(), ", "))
}

// Mix is one co-location job mix: an index plus its member profiles.
type Mix struct {
	// Index is the mix's position in the deterministic enumeration
	// order (combinations in lexicographic order over the suite's
	// canonical profile order).
	Index int
	// Profiles are the co-located jobs.
	Profiles []*sim.Profile
}

// Names returns the benchmark names in the mix.
func (m Mix) Names() []string {
	out := make([]string, len(m.Profiles))
	for i, p := range m.Profiles {
		out[i] = p.Name
	}
	return out
}

// Mixes enumerates all k-of-n combinations of profiles in lexicographic
// order — the paper's job-mix construction: 5 of 7 PARSEC (21 mixes),
// 3 of 5 CloudSuite (10 mixes), 2 of 5 ECP (10 mixes).
func Mixes(profiles []*sim.Profile, k int) ([]Mix, error) {
	n := len(profiles)
	if k < 1 || k > n {
		return nil, fmt.Errorf("workloads: cannot choose %d of %d profiles", k, n)
	}
	var mixes []Mix
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		ps := make([]*sim.Profile, k)
		for i, v := range idx {
			ps[i] = profiles[v]
		}
		mixes = append(mixes, Mix{Index: len(mixes), Profiles: ps})
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return mixes, nil
}

// PaperMixes returns the paper's mix sets for a suite name: PARSEC 5-job,
// CloudSuite 3-job, ECP 2-job.
func PaperMixes(suite string) ([]Mix, error) {
	switch suite {
	case SuitePARSEC:
		return Mixes(PARSEC(), 5)
	case SuiteCloudSuite:
		return Mixes(CloudSuite(), 3)
	case SuiteECP:
		return Mixes(ECP(), 2)
	default:
		return nil, fmt.Errorf("workloads: unknown suite %q", suite)
	}
}
