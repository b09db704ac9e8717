// Package stack is the one assembly from a command line to a running
// control loop: cmd/satori and cmd/satorid Register a Spec on their flag
// set, add the flags only they have, and Build; tests that want the stack
// the binaries run call Build too. It pulls in flag and os, so nothing the
// benchmark links may import it (a row of internal/gates checks
// `go list -C benchmark -deps`).
package stack

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"satori/internal/control"
	"satori/internal/harness"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// Spec describes a stack: which jobs, which policy, which backend, and
// what is layered on it. Each field is one command-line flag (Register).
type Spec struct {
	Workloads, Profiles, Suite string
	Mix                        int
	Policy                     string
	ClusterK                   int
	Seed                       uint64
	Power                      int
	Backend, ResctrlRoot       string
	Trace, Fault               string
	SLOGoalSwitch              bool
}

// Register defines the stack flags on fs, bound to s.
func (s *Spec) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Workloads, "workloads", "", "comma-separated benchmark names to co-locate")
	fs.StringVar(&s.Profiles, "profiles", "", "JSON file of custom workload profiles to co-locate (mixes -suite S -json writes one)")
	fs.StringVar(&s.Suite, "suite", "", "pick a paper mix from this suite instead (parsec|cloudsuite|ecp)")
	fs.IntVar(&s.Mix, "mix", 0, "mix index within -suite")
	fs.StringVar(&s.Policy, "policy", "satori", "partitioning policy")
	fs.IntVar(&s.ClusterK, "cluster-k", 0, "cluster jobs onto at most K control groups (satori-clustered/lfoc; with -policy satori this switches to satori-clustered)")
	fs.Uint64Var(&s.Seed, "seed", 1, "random seed")
	fs.IntVar(&s.Power, "power", 0, "enable power-cap partitioning with this many units")
	fs.StringVar(&s.Backend, "backend", "sim", "platform backend (sim|resctrl)")
	fs.StringVar(&s.ResctrlRoot, "resctrl-root", "", "resctrl mount point or scratch directory (resctrl backend)")
	fs.StringVar(&s.Trace, "trace", "", "IPS trace file to replay (resctrl backend; default: synthesized from the simulator)")
	fs.StringVar(&s.Fault, "fault", "", "deterministic fault script, e.g. 'sample:nan@50,apply:error@100x3'")
	fs.BoolVar(&s.SLOGoalSwitch, "slo-goal-switch", false, "switch the fairness goal to SLO recovery while a violation persists")
}

// Build assembles the stack, in this order: the job set; the policy, by
// name from the one registry; the platform — the simulated testbed, or a
// resctrl tree fed by an IPS trace; the fault injector, when a script is
// given; and the control loop over all of it, every tick evaluated in
// detail, with backoff waiting on the wall clock as a deployment does.
// ticks is the run length when the caller knows it (0: unbounded); only a
// synthesized trace reads it.
func (s Spec) Build(ticks int) (*control.Loop, error) {
	// Zero means off for both; downstream a negative value would read as
	// zero too.
	switch {
	case s.Power < 0:
		return nil, fmt.Errorf("-power %d: must be >= 0 (0 = no power partitioning)", s.Power)
	case s.ClusterK < 0:
		return nil, fmt.Errorf("-cluster-k %d: must be >= 0 (0 = the policy's default)", s.ClusterK)
	}
	jobs, err := s.jobs()
	if err != nil {
		return nil, err
	}
	// k is the control-group budget the policy runs under (0: one group
	// per job); -cluster-k is interpreted by the resolver alone.
	policy, k, err := harness.ResolvePolicy(s.Policy, s.Seed, s.ClusterK)
	if err != nil {
		return nil, err
	}
	machine := sim.DefaultMachine()
	if s.Power > 0 {
		machine.PowerUnits = s.Power
	}

	var platform rdt.Platform
	switch s.Backend {
	case "sim":
		testbed, err := sim.New(machine, jobs, sim.Options{Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		if platform, err = rdt.NewSimPlatform(testbed); err != nil {
			return nil, err
		}
	case "resctrl":
		if platform, err = s.resctrl(machine, jobs, k, ticks); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown -backend %q (valid: sim, resctrl)", s.Backend)
	}
	if s.Fault != "" {
		script, err := rdt.ParseFaultScript(s.Fault)
		if err != nil {
			return nil, err
		}
		script.Seed = s.Seed
		if platform, err = rdt.NewFaultInjector(platform, script); err != nil {
			return nil, err
		}
	}
	return control.New(control.Options{
		Platform:   platform,
		Policy:     policy,
		SLO:        control.SLOOptions{GoalSwitch: s.SLOGoalSwitch},
		Resilience: control.ResilienceOptions{Sleep: time.Sleep},
	})
}

// Ticks converts a run length in simulated seconds, read from the named
// flag, into control ticks, rounding to the nearest tick: truncating
// seconds/TickSeconds would run 0.7 s as 6 ticks, because 0.7/0.1 is
// 6.999… in floating point. A length that is not a finite number, is
// negative, or has more ticks than an int holds is refused by flag name.
func Ticks(flagName string, seconds float64) (int, error) {
	ticks := math.Round(seconds / sim.TickSeconds)
	switch {
	case math.IsNaN(seconds) || math.IsInf(seconds, 0) || seconds < 0:
		return 0, fmt.Errorf("-%s %v: must be a finite number of seconds >= 0", flagName, seconds)
	case ticks >= math.MaxInt:
		return 0, fmt.Errorf("-%s %v: more ticks than an int holds", flagName, seconds)
	}
	return int(ticks), nil
}

// jobs resolves the job set: a profile file wins, then the -workloads
// list, then the -suite mix.
func (s Spec) jobs() ([]*sim.Profile, error) {
	if s.Profiles == "" {
		return workloads.Select(s.Workloads, s.Suite, s.Mix)
	}
	f, err := os.Open(s.Profiles)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	jobs, err := workloads.ReadProfiles(f)
	if err != nil {
		return nil, fmt.Errorf("-profiles %s: %w", s.Profiles, err)
	}
	return jobs, nil
}

// resctrl builds the deployment backend: control groups under
// -resctrl-root, per-job IPS from the -trace recording — or, without
// one, from a trace the simulator synthesizes under the initial equal
// split, ticks rows long (one minute when the run is unbounded; a trace
// replays in a loop), so the full loop runs out of the box.
func (s Spec) resctrl(machine sim.MachineSpec, jobs []*sim.Profile, k, ticks int) (*rdt.ResctrlPlatform, error) {
	if err := checkResctrlRoot(s.ResctrlRoot); err != nil {
		return nil, err
	}
	var sampler *rdt.TraceSampler
	if s.Trace != "" {
		f, err := os.Open(s.Trace)
		if err != nil {
			return nil, fmt.Errorf("-trace %s: %w\n  pass -trace a per-tick IPS trace (see rdt.ReadIPSTrace for the format), or omit -trace to synthesize one from the simulator", s.Trace, err)
		}
		sampler, err = rdt.LoadTraceSampler(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("-trace %s: %w", s.Trace, err)
		}
		if sampler.Jobs() != len(jobs) {
			return nil, fmt.Errorf("-trace %s records %d jobs, the job set has %d", s.Trace, sampler.Jobs(), len(jobs))
		}
	} else {
		testbed, err := sim.New(machine, jobs, sim.Options{Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		if ticks < 1 {
			ticks = 600
		}
		isolated := testbed.MeasureIsolated()
		rows := make([][]float64, ticks)
		for i := range rows {
			rows[i] = testbed.Step().IPS
		}
		if sampler, err = rdt.NewTraceSampler(isolated, rows); err != nil {
			return nil, err
		}
	}
	names := workloads.Mix{Profiles: jobs}.Names()
	// Under a clustered policy the platform boots under the same
	// deterministic round-robin grouping the classifier starts from, so a
	// job set larger than the tree's CLOS budget passes preflight; the
	// policy then migrates memberships through the Grouper capability.
	var grouping *resource.Grouping
	if k > 0 {
		grouping = resource.RoundRobinGrouping(len(names), k)
	}
	platform, err := rdt.NewResctrlPlatform(machine, names, rdt.ResctrlWriter{Root: s.ResctrlRoot}, sampler, grouping)
	if errors.Is(err, os.ErrPermission) {
		return nil, fmt.Errorf("-resctrl-root %s is not writable: %w\n  on /sys/fs/resctrl this usually means the process needs to run privileged (root or CAP_SYS_ADMIN)\n  otherwise point -resctrl-root at a writable scratch directory", s.ResctrlRoot, err)
	}
	return platform, err
}

// checkResctrlRoot pre-flights -resctrl-root so a missing tree fails with
// the remedy instead of a bare path error from deep in the writer. (An
// unwritable one is reported when the first group is written: a probe
// mkdir on a real mount would claim a class of service.)
func checkResctrlRoot(root string) error {
	if root == "" {
		return fmt.Errorf("-backend resctrl needs -resctrl-root (the resctrl mount point, e.g. /sys/fs/resctrl, or a scratch directory)")
	}
	info, err := os.Stat(root)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("-resctrl-root %s does not exist\n  on hardware: mount resctrl first (mount -t resctrl resctrl /sys/fs/resctrl) and run privileged\n  for a dry run: point -resctrl-root at any writable scratch directory (e.g. $(mktemp -d))", root)
	case err != nil:
		return fmt.Errorf("-resctrl-root %s: %w", root, err)
	case !info.IsDir():
		return fmt.Errorf("-resctrl-root %s is not a directory (expected the resctrl mount point or a scratch directory)", root)
	}
	return nil
}
