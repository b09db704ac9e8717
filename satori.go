package satori

import (
	"fmt"

	"satori/internal/control"
	"satori/internal/core"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
)

// Re-exported model types. These aliases are the public names of the
// engine's data model; the internal packages are implementation detail.
type (
	// MachineSpec describes the partitionable hardware.
	MachineSpec = sim.MachineSpec
	// Workload is a benchmark profile: a looping schedule of phases.
	Workload = sim.Profile
	// Phase is one program phase with its resource sensitivities.
	Phase = sim.Phase
	// Space is a configuration search space.
	Space = resource.Space
	// Policy is a partitioning strategy (SATORI or a baseline).
	Policy = policy.Policy
	// Platform is the control+monitoring surface policies run against.
	// Two backends ship: the simulator (NewSession) and the Linux
	// resctrl filesystem (rdt.ResctrlPlatform via NewSessionOn).
	Platform = rdt.Platform
	// Status is one interval's outcome (control.Loop's per-tick record).
	Status = control.Status
	// Summary aggregates a session so far, including the count of
	// policy decisions the platform rejected.
	Summary = control.Summary
)

// DefaultMachine mirrors the paper's testbed: 10 cores, 11 LLC ways,
// 10 memory-bandwidth steps.
func DefaultMachine() MachineSpec { return sim.DefaultMachine() }

// SessionConfig describes a co-location session.
type SessionConfig struct {
	// Machine defaults to DefaultMachine().
	Machine *MachineSpec
	// Workloads are the co-located jobs (required by NewSession; unused
	// by NewSessionOn, whose platform already fixes the job set).
	Workloads []*Workload
	// Policy defaults to full SATORI; use NewPolicyByName to select a
	// baseline. The function receives the session platform so policies
	// needing simulator access (oracles) can be built.
	Policy func(Platform) (Policy, error)
	// Seed makes the session reproducible (default 1).
	Seed uint64
	// Sampled enables Pac-Sim-style sampled simulation: phase-stable
	// intervals are extrapolated instead of evaluated in detail (see
	// control.SamplingOptions). On the simulator backend the outputs are
	// bit-identical to a fully detailed run, so this is purely a
	// per-tick cost knob.
	Sampled bool
	// SLOGoalSwitch arbitrates goals under SLO violations: while a
	// violation persists (hysteretically detected), the fairness channel
	// is re-scored as the worst LC service's attainment so the optimizer
	// prioritizes SLO recovery; the goal reverts once the violation
	// clears. No effect without latency-critical workloads.
	SLOGoalSwitch bool
}

// Session drives one co-location under a policy, one 100 ms interval at
// a time — a thin facade over internal/control's backend-agnostic loop
// (Algorithm 1's outer loop). NewSession runs it on the simulated
// testbed; NewSessionOn runs the identical loop on any Platform backend,
// e.g. rdt.ResctrlPlatform against /sys/fs/resctrl.
type Session struct {
	loop     *control.Loop
	platform Platform
}

// NewSession builds a session on the simulated platform.
func NewSession(cfg SessionConfig) (*Session, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("satori: SessionConfig.Workloads is required")
	}
	machine := sim.DefaultMachine()
	if cfg.Machine != nil {
		machine = *cfg.Machine
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	simulator, err := sim.New(machine, cfg.Workloads, sim.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	platform, err := rdt.NewSimPlatform(simulator)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	return NewSessionOn(platform, cfg)
}

// NewSessionOn builds a session driving an already-constructed Platform
// backend — the deployment path for rdt.ResctrlPlatform (and any future
// backend). cfg.Workloads and Machine are ignored (the platform fixes
// both); Policy, Seed, Sampled and SLOGoalSwitch apply as in NewSession.
// The goals are the paper's defaults (SumIPS throughput, Jain fairness)
// and the baselines refresh every equalization period (100 ticks).
func NewSessionOn(platform Platform, cfg SessionConfig) (*Session, error) {
	if platform == nil {
		return nil, fmt.Errorf("satori: NewSessionOn needs a platform")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	// The policy closure constructs against the platform's *live* space,
	// so re-invoking it after job churn yields a policy of the right
	// dimension (factories read p.Space() at call time).
	build := func(p Platform) (Policy, error) {
		if cfg.Policy != nil {
			return cfg.Policy(p)
		}
		return core.New(p.Space(), core.Options{Seed: seed})
	}
	loop, err := control.New(control.Options{
		Platform: platform,
		Policy:   build,
		Sampling: control.SamplingOptions{Enabled: cfg.Sampled},
		SLO:      control.SLOOptions{GoalSwitch: cfg.SLOGoalSwitch},
	})
	if err != nil {
		return nil, err
	}
	return &Session{loop: loop, platform: platform}, nil
}

// Policy returns the active policy (e.g. to inspect SATORI's weights via
// a type assertion to *Engine).
func (s *Session) Policy() Policy { return s.loop.Policy() }

// SpaceInfo returns the session's configuration space.
func (s *Session) SpaceInfo() *Space { return s.platform.Space() }

// JobNames labels the co-located jobs.
func (s *Session) JobNames() []string { return s.platform.JobNames() }

// Step advances one 100 ms interval: sample IPS, score both goals, let
// the policy decide, and apply the next partition. Transient trouble — a
// lost reading, a rejected apply, a failed baseline refresh — is surfaced
// in the status (Status.Held with Status.Err, Status.ResetErr), not
// silently dropped; a non-transient platform failure is returned as the
// error, so callers never need to classify a status field.
func (s *Session) Step() (Status, error) { return s.loop.Step() }

// NumJobs returns the number of currently co-located jobs.
func (s *Session) NumJobs() int { return s.loop.NumJobs() }

// AddWorkload admits a new job into the co-location (a fleet-layer job
// arrival). The configuration space changes dimension, so this is a
// full membership change: the partition is
// re-split, isolated baselines are re-measured, and the policy is rebuilt
// on the new space — the engine re-initialization that a job-count change
// requires (its proxy-model inputs are per-(resource, job) coordinates).
// The session's tick counter and running aggregates carry on. Errors
// with control.ErrChurnUnsupported on backends without the capability.
func (s *Session) AddWorkload(w *Workload) error { return s.loop.AddJob(w) }

// RemoveWorkload evicts the job in slot j (a departure); jobs above j
// shift down one slot. Like AddWorkload this re-splits the partition,
// re-measures baselines and rebuilds the policy on the shrunken space.
// The last job cannot be removed.
func (s *Session) RemoveWorkload(j int) error { return s.loop.RemoveJob(j) }

// Run advances n intervals and returns the last status.
func (s *Session) Run(n int) (Status, error) { return s.loop.Run(n) }

// Summary returns the running aggregate.
func (s *Session) Summary() Summary { return s.loop.Summary() }
