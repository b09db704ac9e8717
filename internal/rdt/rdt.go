// Package rdt models the hardware control plane the paper drives on its
// Xeon testbed: Intel Cache Allocation Technology (CAT) way masks, Memory
// Bandwidth Allocation (MBA) throttle levels, taskset-style core affinity
// and a RAPL-style power cap. A resource.Config is compiled into a Plan —
// per-job class-of-service settings with the same constraints real
// hardware imposes (contiguous, non-overlapping CAT bitmasks; MBA percent
// steps; disjoint CPU sets) — so the simulator backend and the real
// resctrl backend are interchangeable behind one interface.
//
// The Platform interface is the control+monitor surface SATORI needs:
// apply a partition, sample per-job IPS at 10 Hz, re-measure isolated
// baselines, and resync compiled state after membership churn. Two
// backends implement it: SimPlatform on internal/sim, and
// ResctrlPlatform on the Linux resctrl filesystem layout (composing
// ResctrlWriter with a pluggable IPS Sampler). internal/control drives
// either through the identical Algorithm-1 tick loop.
package rdt

import (
	"fmt"
	"math"
	"strings"

	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/slo"
)

// JobAllocation is the hardware view of one job's share under a Plan.
type JobAllocation struct {
	// Job is the job index (class of service).
	Job int
	// CPUSet lists the core IDs the job's threads are pinned to.
	CPUSet []int
	// CATMask is the contiguous LLC way bitmask (bit i = way i).
	CATMask uint64
	// MBAPercent is the memory-bandwidth throttle in percent, a
	// multiple of the MBA step.
	MBAPercent int
	// PowerShare is the fraction of the socket power budget (0 when
	// power is not partitioned).
	PowerShare float64
}

// Plan is a compiled resource partitioning: one JobAllocation per job.
type Plan struct {
	Jobs []JobAllocation
}

// Compile translates a validated configuration into hardware settings.
// Cores and LLC ways are handed out contiguously in job order, matching
// how CAT requires contiguous way masks and how affinity is set in
// practice to preserve locality. The jobs' CPU sets are cut from one
// backing array, each without capacity past its end.
func Compile(space *resource.Space, c resource.Config) (Plan, error) {
	if err := space.Validate(c); err != nil {
		return Plan{}, fmt.Errorf("rdt: cannot compile invalid config: %w", err)
	}
	idx := func(kind resource.Kind) int {
		for i, r := range space.Resources {
			if r.Kind == kind {
				return i
			}
		}
		return -1
	}
	iCores, iWays, iBW, iPower := idx(resource.Cores), idx(resource.LLCWays), idx(resource.MemBW), idx(resource.Power)
	plan := Plan{Jobs: make([]JobAllocation, space.Jobs)}
	var cpus []int
	if iCores >= 0 {
		cpus = make([]int, space.Resources[iCores].Units)
		for i := range cpus {
			cpus[i] = i
		}
	}
	coreCursor, wayCursor := 0, 0
	for j := 0; j < space.Jobs; j++ {
		ja := JobAllocation{Job: j}
		if iCores >= 0 {
			n := c.Alloc[iCores][j]
			ja.CPUSet = cpus[coreCursor : coreCursor+n : coreCursor+n]
			coreCursor += n
		}
		if iWays >= 0 {
			n := c.Alloc[iWays][j]
			if wayCursor+n > 64 {
				return Plan{}, fmt.Errorf("rdt: way mask exceeds 64 bits")
			}
			ja.CATMask = ((uint64(1) << n) - 1) << wayCursor
			wayCursor += n
		}
		if iBW >= 0 {
			units := space.Resources[iBW].Units
			// MBA exposes percent throttles in steps of
			// 100/units (10% on the paper's platform).
			ja.MBAPercent = c.Alloc[iBW][j] * 100 / units
		}
		if iPower >= 0 {
			ja.PowerShare = float64(c.Alloc[iPower][j]) / float64(space.Resources[iPower].Units)
		}
		plan.Jobs[j] = ja
	}
	return plan, nil
}

// String renders the plan like a resctrl schemata dump, for logs.
func (p Plan) String() string {
	var b strings.Builder
	for _, j := range p.Jobs {
		fmt.Fprintf(&b, "COS%d: cpus=%v L3=0x%x MB=%d%%", j.Job, j.CPUSet, j.CATMask, j.MBAPercent)
		if j.PowerShare > 0 {
			fmt.Fprintf(&b, " PL=%.0f%%", j.PowerShare*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks the hardware invariants: disjoint CPU sets, disjoint
// contiguous CAT masks, and MBA percents that are positive multiples of
// the platform step. The CPUs seen are kept in a bitset from the lowest
// CPU listed to the highest: on the stack when they span at most 256, else
// in one slice. A plan whose CPU ids span more than maxCPUSpan is refused
// before anything else is checked.
func (p Plan) Validate() error {
	lo, hi := math.MaxInt, math.MinInt
	for _, j := range p.Jobs {
		for _, cpu := range j.CPUSet {
			lo, hi = min(lo, cpu), max(hi, cpu)
		}
	}
	var small [4]uint64
	seen := small[:]
	if span := uint64(hi) - uint64(lo); hi >= lo && span >= maxCPUSpan {
		return fmt.Errorf("rdt: cpu ids %d to %d span more than %d", lo, hi, maxCPUSpan)
	} else if hi >= lo && span/64 >= uint64(len(small)) {
		seen = make([]uint64, span/64+1)
	}
	var maskUnion uint64
	for _, j := range p.Jobs {
		for _, cpu := range j.CPUSet {
			at := uint64(cpu) - uint64(lo)
			if seen[at/64]&(1<<(at%64)) != 0 {
				return fmt.Errorf("rdt: cpu %d assigned to multiple jobs", cpu)
			}
			seen[at/64] |= 1 << (at % 64)
		}
		if j.CATMask == 0 {
			return fmt.Errorf("rdt: job %d has empty CAT mask", j.Job)
		}
		if j.CATMask&maskUnion != 0 {
			return fmt.Errorf("rdt: job %d CAT mask overlaps another job", j.Job)
		}
		maskUnion |= j.CATMask
		if !contiguous(j.CATMask) {
			return fmt.Errorf("rdt: job %d CAT mask %#x not contiguous", j.Job, j.CATMask)
		}
		if j.MBAPercent <= 0 || j.MBAPercent > 100 {
			return fmt.Errorf("rdt: job %d MBA percent %d out of range", j.Job, j.MBAPercent)
		}
	}
	return nil
}

// maxCPUSpan bounds the CPU ids one plan may span, lowest to highest, and
// with it the bitset Validate keeps them in (128 KB).
const maxCPUSpan = 1 << 20

// contiguous reports whether the set bits of m form one run.
func contiguous(m uint64) bool {
	if m == 0 {
		return false
	}
	// Strip trailing zeros, then adding 1 to a run of ones yields a
	// power of two.
	for m&1 == 0 {
		m >>= 1
	}
	return m&(m+1) == 0
}

// ConfigShapeError is the typed rejection every Platform backend uses for
// a configuration shaped for a job set that no longer exists (stale after
// membership churn). Shared with internal/sim via internal/resource.
type ConfigShapeError = resource.ConfigShapeError

// Platform is the complete control and monitoring surface SATORI and all
// baseline policies run against — apply partitions, sample per-job IPS
// each 100 ms interval, and (re)measure isolated baselines. It is the
// only contract internal/control's tick loop depends on, so backends are
// interchangeable at every layer: SimPlatform drives the analytical
// simulator, ResctrlPlatform drives the Linux resctrl filesystem layout.
//
// Contract notes:
//   - Apply must reject a configuration whose dimensions do not match the
//     live job set with a *ConfigShapeError (wrapped or direct) rather
//     than silently misallocating.
//   - Sample and MeasureIsolated return one value per job, in job order.
type Platform interface {
	// Space describes the partitionable resources and job count.
	Space() *resource.Space
	// Apply installs a resource partitioning configuration.
	Apply(resource.Config) error
	// Current returns the active configuration.
	Current() resource.Config
	// Sample advances one 100 ms monitoring interval and returns the
	// observed per-job IPS.
	Sample() ([]float64, error)
	// MeasureIsolated returns fresh isolated-execution IPS baselines
	// for every job (Algorithm 1 lines 3 and 13).
	MeasureIsolated() ([]float64, error)
	// JobNames labels the co-located jobs.
	JobNames() []string
	// Resync recompiles backend state (the hardware plan, control-group
	// files) from the platform's live space and current configuration.
	// It must be called after anything re-dimensions the space behind
	// the platform's back; it is idempotent and draws no randomness.
	Resync() error
}

// As finds an optional capability — or a concrete backend — behind any
// stack of decorators: it returns the first platform in p's chain that is
// a T, checking p itself and then whatever each Unwrap() Platform method
// returns (errors.As for platforms). A decorator therefore implements
// only the operations it changes plus Unwrap; a capability it does
// implement itself is found before the wrapped platform's.
func As[T any](p Platform) (T, bool) {
	for p != nil {
		if t, ok := p.(T); ok {
			return t, true
		}
		u, ok := p.(interface{ Unwrap() Platform })
		if !ok {
			break
		}
		p = u.Unwrap()
	}
	var zero T
	return zero, false
}

// Churner is the optional membership-churn capability of a Platform:
// admit a job, evict a job, or swap the workload in a slot. Backends
// that cannot change their job set at runtime (e.g. a trace-driven
// resctrl deployment) simply do not implement it; internal/control
// surfaces that as a typed "churn unsupported" error. Implementations
// must leave the platform fully resynced (plan recompiled, partition
// re-split where the space changed dimension) before returning.
type Churner interface {
	// AddJob admits a new job running profile p, growing the space by
	// one slot and resetting the partition to the new equal split.
	AddJob(p *sim.Profile) error
	// RemoveJob evicts the job in slot j; jobs above shift down one
	// slot. The last job cannot be removed.
	RemoveJob(j int) error
	// ReplaceJob swaps the workload in slot j without re-dimensioning
	// the space or touching the partition.
	ReplaceJob(j int, p *sim.Profile) error
	// NumJobs returns the live job count.
	NumJobs() int
}

// FastSampler is the optional sampled-simulation capability of a
// Platform: SampleFast advances one monitoring interval by extrapolating
// from cached phase-steady rates instead of a detailed evaluation. ok is
// false — with no side effects — when no valid extrapolation state exists
// (configuration change, membership churn, or an imminent phase boundary
// since the last detailed sample); the caller must then fall back to
// Sample. Backends without a cheap extrapolation path (e.g. resctrl,
// where sampling IS the hardware measurement) simply do not implement it.
type FastSampler interface {
	SampleFast() ([]float64, bool)
	// FastHorizon returns a conservative count of consecutive future
	// SampleFast calls guaranteed to succeed from the current state — the
	// lookahead event-driven callers use to defer whole runs of ticks. 0
	// means the next interval needs a detailed Sample. Overrunning the
	// horizon is safe: SampleFast refuses rather than diverging.
	FastHorizon() int
}

// SLOProvider is the optional latency-critical capability of a Platform:
// SLOSpecs exposes the per-slot SLO specs of the live job set, nil
// entries marking batch jobs. The control loop consults it once per
// (re)build — a platform whose specs are all nil (or that does not
// implement the interface at all) gets no SLO tracking and behaves
// bit-identically to a pre-SLO loop. After membership churn the slice
// must describe the post-churn job set.
type SLOProvider interface {
	SLOSpecs() []*slo.Spec
}

// BatchSampler is the optional batched extension of FastSampler: SkipFast
// advances n intervals in one coarse O(jobs) jump instead of n
// extrapolated per-interval samples. The jump is deterministic (a pure
// function of the pre-skip state) but trades per-interval noise fidelity
// for speed, so callers that need the lockstep-identical trajectory must
// replay interval-by-interval via SampleFast instead. SkipFast returns
// false — with no side effects — when n exceeds the backend's FastHorizon.
type BatchSampler interface {
	FastSampler
	SkipFast(n int) bool
}

// SimPlatform adapts a *sim.Simulator to the Platform interface and keeps
// the compiled hardware Plan in sync, exercising the same compile path a
// real backend would use.
type SimPlatform struct {
	sim  *sim.Simulator
	plan Plan

	// grouping, when non-nil, maps jobs many-to-one onto clusters and the
	// compiled plan holds one entry per CLUSTER (rdt.Grouper capability).
	grouping *resource.Grouping
	// maxCLOS is the simulated hardware class-of-service budget (0 =
	// unlimited, the default; tests set it to model resctrl's CLOS wall).
	maxCLOS int
}

// NewSimPlatform wraps s. The initial equal-split plan is compiled
// immediately.
func NewSimPlatform(s *sim.Simulator) (*SimPlatform, error) {
	p := &SimPlatform{sim: s}
	plan, err := Compile(s.Space(), s.Current())
	if err != nil {
		return nil, err
	}
	p.plan = plan
	return p, nil
}

// Space implements Platform.
func (p *SimPlatform) Space() *resource.Space { return p.sim.Space() }

// Apply implements Platform: it compiles and validates the hardware plan,
// then installs the configuration in the simulator. A configuration shaped
// for a different job set (stale after AddJob/RemoveJob churn) surfaces as
// the simulator's typed *resource.ConfigShapeError before compilation.
func (p *SimPlatform) Apply(c resource.Config) error {
	if err := p.sim.CheckShape(c); err != nil {
		return err
	}
	if p.sim.CurrentEquals(c) {
		// Re-applying the installed partition: nothing to compile or
		// install (the resctrl backend elides the same way, as identical
		// MSR writes would be on hardware).
		return nil
	}
	plan, err := p.compile(c)
	if err != nil {
		return err
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	if err := p.sim.Apply(c); err != nil {
		return err
	}
	p.plan = plan
	return nil
}

// Current implements Platform.
func (p *SimPlatform) Current() resource.Config { return p.sim.Current() }

// Plan returns the most recently compiled hardware plan (one entry per
// job, or per cluster when a grouping is installed).
func (p *SimPlatform) Plan() Plan { return p.plan }

// compile builds the hardware plan for a configuration, honoring the
// installed grouping and the simulated CLOS budget.
func (p *SimPlatform) compile(c resource.Config) (Plan, error) {
	if err := checkCLOS(planGroups(p.sim.Space().Jobs, p.grouping), p.maxCLOS); err != nil {
		return Plan{}, err
	}
	return CompileGrouped(p.sim.Space(), c, p.grouping)
}

// SetGrouping implements Grouper: install (or with nil remove) the
// job→cluster map and recompile the plan as one control group per
// cluster. The grouping must span the live job set.
func (p *SimPlatform) SetGrouping(g *resource.Grouping) error {
	if g != nil && g.Jobs() != p.sim.Space().Jobs {
		return fmt.Errorf("rdt: grouping spans %d jobs, platform has %d", g.Jobs(), p.sim.Space().Jobs)
	}
	prev := p.grouping
	p.grouping = g
	if err := p.Resync(); err != nil {
		p.grouping = prev
		return err
	}
	return nil
}

// Grouping implements Grouper.
func (p *SimPlatform) Grouping() *resource.Grouping { return p.grouping }

// MaxCLOS implements CLOSLimiter.
func (p *SimPlatform) MaxCLOS() int { return p.maxCLOS }

// Sample implements Platform.
func (p *SimPlatform) Sample() ([]float64, error) {
	return p.sim.Step().IPS, nil
}

// SampleFast implements FastSampler via the simulator's extrapolated
// step. The returned IPS is bit-identical to what a detailed Sample
// would have observed (see sim.StepSampled).
func (p *SimPlatform) SampleFast() ([]float64, bool) {
	sm, ok := p.sim.StepSampled()
	if !ok {
		return nil, false
	}
	return sm.IPS, true
}

// FastHorizon implements FastSampler via the simulator's phase-boundary
// lookahead (see sim.SampledHorizon).
func (p *SimPlatform) FastHorizon() int { return p.sim.SampledHorizon() }

// SkipFast implements BatchSampler via the simulator's coarse batched
// advance.
func (p *SimPlatform) SkipFast(n int) bool { return p.sim.SkipSampled(n) }

// SLOSpecs implements SLOProvider via the simulator's live job set.
func (p *SimPlatform) SLOSpecs() []*slo.Spec { return p.sim.SLOSpecs() }

// MeasureIsolated implements Platform.
func (p *SimPlatform) MeasureIsolated() ([]float64, error) {
	return p.sim.MeasureIsolated(), nil
}

// JobNames implements Platform.
func (p *SimPlatform) JobNames() []string {
	out := make([]string, p.sim.NumJobs())
	for j := range out {
		out[j] = p.sim.JobName(j)
	}
	return out
}

// Simulator exposes the wrapped simulator for oracle-style callers that
// need noise-free model access.
func (p *SimPlatform) Simulator() *sim.Simulator { return p.sim }

// Resync implements Platform: it recompiles the hardware plan from the
// simulator's live space and current configuration. It must be called
// after anything re-dimensions the space behind the platform's back —
// the cached plan would describe a partition of a job set that no longer
// exists. The Churner methods below resync automatically.
func (p *SimPlatform) Resync() error {
	plan, err := p.compile(p.sim.Current())
	if err != nil {
		return err
	}
	p.plan = plan
	return nil
}

// rechurnGrouping replaces a stale grouping after membership churn: the
// installed map spans the pre-churn job set, so it is swapped for the
// deterministic round-robin bootstrap at the same cluster count (clamped
// to the new job count) — staying within any CLOS budget until the
// rebuilt policy installs its own fresh grouping (the Grouper contract).
// Without a grouping nothing changes.
func (p *SimPlatform) rechurnGrouping() {
	if p.grouping == nil {
		return
	}
	p.grouping = resource.RoundRobinGrouping(p.sim.NumJobs(), p.grouping.Clusters)
}

// AddJob implements Churner: it admits a job into the simulator (which
// re-splits the partition on the grown space) and resyncs the plan.
func (p *SimPlatform) AddJob(profile *sim.Profile) error {
	if err := p.sim.AddJob(profile); err != nil {
		return err
	}
	p.rechurnGrouping()
	return p.Resync()
}

// RemoveJob implements Churner: it evicts the job in slot j (the
// simulator re-splits the shrunken space) and resyncs the plan.
func (p *SimPlatform) RemoveJob(j int) error {
	if err := p.sim.RemoveJob(j); err != nil {
		return err
	}
	p.rechurnGrouping()
	return p.Resync()
}

// ReplaceJob implements Churner: the space and partition are untouched,
// so no resync is needed.
func (p *SimPlatform) ReplaceJob(j int, profile *sim.Profile) error {
	return p.sim.ReplaceJob(j, profile)
}

// NumJobs implements Churner.
func (p *SimPlatform) NumJobs() int { return p.sim.NumJobs() }
