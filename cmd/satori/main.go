// Command satori runs one co-location session: pick workloads, pick a
// partitioning policy, pick a backend, and watch the throughput and
// fairness scores evolve at 10 Hz.
//
// Two backends ship. The default simulates the paper's testbed; the
// resctrl backend drives the Linux resctrl filesystem layout — point
// -resctrl-root at /sys/fs/resctrl on a CAT/MBA machine (running
// privileged) to partition it for real, or at any scratch directory to
// exercise the identical control path hermetically. The resctrl backend
// reads per-job IPS from a recorded trace (-trace, see rdt.ReadIPSTrace
// for the format); without one it synthesizes a deterministic trace from
// the simulator so the full loop runs out of the box.
//
// Usage:
//
//	satori -workloads canneal,swaptions,streamcluster -policy satori -seconds 60
//	satori -suite parsec -mix 0 -policy parties
//	satori -workloads amg,hypre -policy balanced-oracle -csv run.csv
//	satori -backend resctrl -resctrl-root $(mktemp -d) -suite parsec -seconds 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"satori"
	"satori/internal/harness"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/trace"
	"satori/internal/workloads"
)

func main() {
	workloadList := flag.String("workloads", "", "comma-separated benchmark names to co-locate")
	profilesPath := flag.String("profiles", "", "JSON file of custom workload profiles to co-locate (see satori.SaveWorkloads)")
	suite := flag.String("suite", "", "pick a paper mix from this suite instead (parsec|cloudsuite|ecp)")
	mixIdx := flag.Int("mix", 0, "mix index within -suite")
	policyName := flag.String("policy", "satori", "partitioning policy")
	clusterK := flag.Int("cluster-k", 0, "cluster jobs onto at most K control groups (satori-clustered/lfoc; with -policy satori this switches to satori-clustered)")
	seconds := flag.Float64("seconds", 60, "run length in simulated seconds")
	seed := flag.Uint64("seed", 1, "random seed")
	power := flag.Int("power", 0, "enable power-cap partitioning with this many units")
	csvPath := flag.String("csv", "", "write the per-tick trace to this CSV file")
	backend := flag.String("backend", "sim", "platform backend (sim|resctrl)")
	sampled := flag.Bool("sampled", false, "extrapolate phase-stable intervals instead of evaluating them in detail (sim backend; outputs are bit-identical)")
	resctrlRoot := flag.String("resctrl-root", "", "resctrl mount point or scratch directory (resctrl backend)")
	tracePath := flag.String("trace", "", "IPS trace file to replay (resctrl backend; default: synthesized from the simulator)")
	dumpSuite := flag.String("dump-profiles", "", "write a suite's workload profiles as JSON to stdout and exit (parsec|cloudsuite|ecp)")
	flag.Parse()

	if *dumpSuite != "" {
		jobs, err := satori.Suite(*dumpSuite)
		if err != nil {
			log.Fatal(err)
		}
		if err := satori.SaveWorkloads(os.Stdout, jobs); err != nil {
			log.Fatal(err)
		}
		return
	}

	var jobs []*satori.Workload
	if *profilesPath != "" {
		f, err := os.Open(*profilesPath)
		if err != nil {
			log.Fatal(err)
		}
		jobs, err = satori.LoadWorkloads(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		var err error
		jobs, err = workloads.Select(*workloadList, *suite, *mixIdx)
		if err != nil {
			log.Fatal(err)
		}
	}

	machine := satori.DefaultMachine()
	if *power > 0 {
		machine.PowerUnits = *power
	}
	ticks := int(*seconds / satori.TickSeconds)

	// One table for both backends: any registry name, -cluster-k
	// interpreted by the resolver; k is the control-group budget the
	// policy runs under (0: one group per job).
	policy, k, err := harness.ResolvePolicy(*policyName, *seed, *clusterK)
	if err != nil {
		log.Fatal(err)
	}
	cfg := satori.SessionConfig{Policy: policy, Seed: *seed}
	var sess *satori.Session
	switch *backend {
	case "sim":
		cfg.Machine, cfg.Workloads, cfg.Sampled = &machine, jobs, *sampled
		sess, err = satori.NewSession(cfg)
	case "resctrl":
		sess, err = newResctrlSession(machine, jobs, cfg, k, *resctrlRoot, *tracePath, ticks)
	default:
		log.Fatalf("unknown -backend %q (valid: sim, resctrl)", *backend)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backend: %s\njobs: %v\npolicy: %s\nspace: %.0f configurations\n",
		*backend, sess.JobNames(), *policyName, sess.SpaceInfo().Size())

	series := trace.NewSeries("time", "throughput", "fairness")
	report := ticks / 10
	if report < 1 {
		report = 1
	}
	for i := 1; i <= ticks; i++ {
		st, err := sess.Step()
		if err != nil {
			log.Fatal(err)
		}
		series.Add(st.Time, st.Throughput, st.Fairness)
		if i%report == 0 {
			fmt.Printf("t=%6.1fs  throughput=%.3f  fairness=%.3f\n", st.Time, st.Throughput, st.Fairness)
		}
	}
	fmt.Println(sess.Summary())
	if eng, ok := sess.Policy().(*satori.Engine); ok {
		w := eng.LastWeights()
		fmt.Printf("weights: W_T=%.2f W_F=%.2f; configurations explored: %d\n", w.T, w.F, eng.Records().Len())
	}
	if rp, ok := rdt.As[*rdt.ResctrlPlatform](sess.Platform()); ok {
		reportResctrl(rp, len(jobs), *resctrlRoot)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := series.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("trace written to", *csvPath)
	}
}

// newResctrlSession assembles the resctrl deployment stack: a sampler
// (recorded trace, or one synthesized deterministically from the
// simulator), the resctrl writer rooted at -resctrl-root, and the
// policy, all driven by the same control loop as the simulated backend.
func newResctrlSession(machine satori.MachineSpec, jobs []*satori.Workload,
	cfg satori.SessionConfig, clusterK int, root, tracePath string, ticks int) (*satori.Session, error) {
	if root == "" {
		return nil, fmt.Errorf("-backend resctrl needs -resctrl-root (the resctrl mount point, e.g. /sys/fs/resctrl, or a scratch directory)")
	}
	if err := checkResctrlRoot(root); err != nil {
		return nil, err
	}
	var sampler rdt.Sampler
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, fmt.Errorf("-trace %s: %w\n  pass -trace a per-tick IPS trace (see rdt.ReadIPSTrace for the format), or omit -trace to synthesize one from the simulator", tracePath, err)
		}
		sampler, err = rdt.LoadTraceSampler(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("-trace %s: %w", tracePath, err)
		}
	} else {
		var err error
		sampler, err = synthesizeTrace(machine, jobs, cfg.Seed, ticks)
		if err != nil {
			return nil, err
		}
	}
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	// Under a clustered policy the platform boots under the same
	// deterministic round-robin grouping the classifier starts from, so a
	// job set larger than the tree's CLOS budget passes preflight; the
	// policy then migrates memberships through the Grouper capability.
	var grouping *satori.Grouping
	if clusterK > 0 {
		grouping = resource.RoundRobinGrouping(len(names), clusterK)
	}
	platform, err := rdt.NewResctrlPlatformGrouped(machine, names, rdt.ResctrlWriter{Root: root}, sampler, grouping)
	if err != nil {
		return nil, err
	}
	return satori.NewSessionOn(platform, cfg)
}

// checkResctrlRoot pre-flights -resctrl-root so a missing or unwritable
// tree fails with the remedy instead of a bare path error from deep in
// the writer.
func checkResctrlRoot(root string) error {
	info, err := os.Stat(root)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("-resctrl-root %s does not exist\n  on hardware: mount resctrl first (mount -t resctrl resctrl /sys/fs/resctrl) and run privileged\n  for a dry run: point -resctrl-root at any writable scratch directory (e.g. $(mktemp -d))", root)
	case err != nil:
		return fmt.Errorf("-resctrl-root %s: %w", root, err)
	case !info.IsDir():
		return fmt.Errorf("-resctrl-root %s is not a directory (expected the resctrl mount point or a scratch directory)", root)
	}
	// Probe writability the way the writer will use it: control groups
	// are directories created directly under the root.
	probe := filepath.Join(root, ".satori-probe")
	if err := os.Mkdir(probe, 0o755); err != nil {
		return fmt.Errorf("-resctrl-root %s is not writable: %v\n  on /sys/fs/resctrl this usually means satori needs to run privileged (root or CAP_SYS_ADMIN)\n  otherwise point -resctrl-root at a writable scratch directory", root, err)
	}
	os.Remove(probe)
	return nil
}

// synthesizeTrace records a deterministic IPS trace by running the
// simulated testbed under the initial equal split for the whole run
// length — the out-of-the-box sampler when no -trace capture is given.
func synthesizeTrace(machine satori.MachineSpec, jobs []*satori.Workload, seed uint64, ticks int) (*rdt.TraceSampler, error) {
	simulator, err := sim.New(machine, jobs, sim.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	isolated := simulator.MeasureIsolated()
	if ticks < 1 {
		ticks = 1
	}
	rows := make([][]float64, 0, ticks)
	for i := 0; i < ticks; i++ {
		rows = append(rows, simulator.Step().IPS)
	}
	return rdt.NewTraceSampler(isolated, rows)
}

// reportResctrl prints where the control groups landed and round-trips
// one group through ReadGroup so a live deployment can be spot-checked.
func reportResctrl(p *rdt.ResctrlPlatform, njobs int, root string) {
	groups := njobs
	if g := p.Grouping(); g != nil {
		groups = g.Clusters
		fmt.Printf("resctrl: %d jobs clustered onto %d control groups (%s)\n", njobs, groups, g)
	}
	fmt.Printf("resctrl: %d control groups under %s\n", groups, root)
	w := p.Writer()
	ja, err := w.ReadGroup(0)
	if err != nil {
		fmt.Println("resctrl: read-back failed:", err)
		return
	}
	fmt.Printf("resctrl: job 0 schemata round-trip: L3 mask %#x, MB %d%%, cpus %s (%s)\n",
		ja.CATMask, ja.MBAPercent, rdt.FormatCPUList(ja.CPUSet),
		filepath.Join(root, "satori-job0"))
}
