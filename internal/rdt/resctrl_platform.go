package rdt

import (
	"fmt"

	"satori/internal/resource"
	"satori/internal/sim"
)

// ResctrlPlatform is the Platform backend for a real Linux resctrl
// deployment: every accepted configuration is compiled to a Plan and
// materialized in the resctrl filesystem layout by a ResctrlWriter,
// while per-job IPS comes from a pluggable Sampler (a perf-counter
// reader on live hardware, a TraceSampler for replays and hermetic
// tests). Pointing the writer's Root at /sys/fs/resctrl partitions a
// CAT/MBA machine for real; pointing it at a scratch directory runs the
// identical code path without privileges — which is how the end-to-end
// tests and the CI smoke drive the full Algorithm-1 loop.
//
// ResctrlPlatform intentionally does not implement Churner: its job set
// is fixed at construction (a trace has a fixed width, and live jobs are
// pinned to control groups out of band). internal/control surfaces
// churn attempts as a typed "churn unsupported" error.
type ResctrlPlatform struct {
	space   *resource.Space
	names   []string
	writer  ResctrlWriter
	sampler Sampler
	current resource.Config
	plan    Plan

	// grouping, when non-nil, maps jobs many-to-one onto clusters and
	// the tree holds one control group per CLUSTER (rdt.Grouper).
	grouping *resource.Grouping
	// maxCLOS is the class-of-service budget detected from
	// info/L3/num_closids at construction (0 = unlimited).
	maxCLOS int
}

// NewResctrlPlatform builds the platform for len(jobNames) jobs on the
// given machine shape, writes the initial equal-split partition to the
// resctrl tree, and wires the sampler. The writer's Root must be set.
//
// A nil grouping is plain per-job operation: construction fails with a
// typed *CLOSLimitError when the job count exceeds the tree's
// class-of-service budget (info/L3/num_closids). A grouping is installed
// before the first write, so a larger job set passes preflight when its
// cluster count fits; clustered policies then migrate memberships through
// the Grouper capability, and the deterministic bootstrap to pass here is
// resource.RoundRobinGrouping(len(jobNames), k).
func NewResctrlPlatform(spec sim.MachineSpec, jobNames []string, w ResctrlWriter, s Sampler, g *resource.Grouping) (*ResctrlPlatform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(jobNames) == 0 {
		return nil, fmt.Errorf("rdt: ResctrlPlatform needs at least one job")
	}
	if w.Root == "" {
		return nil, fmt.Errorf("rdt: ResctrlPlatform needs ResctrlWriter.Root (the resctrl mount point or a scratch directory)")
	}
	if s == nil {
		return nil, fmt.Errorf("rdt: ResctrlPlatform needs a Sampler")
	}
	if g != nil && g.Jobs() != len(jobNames) {
		return nil, fmt.Errorf("rdt: grouping spans %d jobs, platform has %d", g.Jobs(), len(jobNames))
	}
	space, err := spec.Space(len(jobNames))
	if err != nil {
		return nil, err
	}
	limit, err := w.MaxCLOS()
	if err != nil {
		return nil, err
	}
	p := &ResctrlPlatform{
		space:    space,
		names:    append([]string(nil), jobNames...),
		writer:   w,
		sampler:  s,
		current:  space.EqualSplit(),
		grouping: g,
		maxCLOS:  limit,
	}
	if err := p.Resync(); err != nil {
		return nil, err
	}
	return p, nil
}

// Space implements Platform.
func (p *ResctrlPlatform) Space() *resource.Space { return p.space }

// Apply implements Platform: shape-check, then compile and write one
// control group per job (or cluster) into the resctrl tree. A
// configuration shaped for a different job set is rejected with the
// typed *ConfigShapeError; rewrites are skipped when the configuration is
// unchanged, matching how identical MSR writes are elided on hardware.
func (p *ResctrlPlatform) Apply(c resource.Config) error {
	if err := resource.CheckShape(p.space, c); err != nil {
		return err
	}
	if p.current.Equal(c) {
		return nil
	}
	if err := p.write(c); err != nil {
		return err
	}
	p.current = c.Clone()
	return nil
}

// write checks the live group count against the class-of-service budget
// read at construction, as SimPlatform.compile does, then compiles c under
// the live grouping and materializes the plan (ResctrlWriter.Apply
// validates it first); on failure p.plan stands and no group is written.
func (p *ResctrlPlatform) write(c resource.Config) error {
	if err := checkCLOS(planGroups(p.space.Jobs, p.grouping), p.maxCLOS); err != nil {
		return err
	}
	plan, err := CompileGrouped(p.space, c, p.grouping)
	if err != nil {
		return err
	}
	if err := p.writer.Apply(plan); err != nil {
		return err
	}
	p.plan = plan
	return nil
}

// Current implements Platform.
func (p *ResctrlPlatform) Current() resource.Config { return p.current.Clone() }

// ReadGroup reads control group g back from the resctrl tree — the
// round-trip spot check of a running deployment.
func (p *ResctrlPlatform) ReadGroup(g int) (JobAllocation, error) { return p.writer.ReadGroup(g) }

// Sample implements Platform: one 100 ms interval of per-job IPS from
// the sampler, validated against the job count.
func (p *ResctrlPlatform) Sample() ([]float64, error) {
	ips, err := p.sampler.Sample(p.plan)
	if err != nil {
		return nil, fmt.Errorf("rdt: sampling IPS: %w", err)
	}
	if len(ips) != p.space.Jobs {
		return nil, fmt.Errorf("rdt: sampler returned %d jobs, platform has %d", len(ips), p.space.Jobs)
	}
	return ips, nil
}

// MeasureIsolated implements Platform.
func (p *ResctrlPlatform) MeasureIsolated() ([]float64, error) {
	iso, err := p.sampler.SampleIsolated()
	if err != nil {
		return nil, fmt.Errorf("rdt: measuring isolated baselines: %w", err)
	}
	if len(iso) != p.space.Jobs {
		return nil, fmt.Errorf("rdt: sampler returned %d isolated baselines, platform has %d", len(iso), p.space.Jobs)
	}
	return iso, nil
}

// JobNames implements Platform.
func (p *ResctrlPlatform) JobNames() []string { return append([]string(nil), p.names...) }

// SetGrouping implements Grouper: install (or with nil remove) the
// job→cluster map and rewrite the tree as one control group per cluster
// (stale higher-numbered groups are pruned by the writer).
func (p *ResctrlPlatform) SetGrouping(g *resource.Grouping) error {
	if g != nil && g.Jobs() != p.space.Jobs {
		return fmt.Errorf("rdt: grouping spans %d jobs, platform has %d", g.Jobs(), p.space.Jobs)
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
func (p *ResctrlPlatform) Grouping() *resource.Grouping { return p.grouping }

// MaxCLOS implements CLOSLimiter: the class-of-service budget detected
// from info/L3/num_closids at construction (0 = unlimited).
func (p *ResctrlPlatform) MaxCLOS() int { return p.maxCLOS }

// Resync implements Platform: recompile the plan from the live space and
// current configuration and rewrite every control group.
func (p *ResctrlPlatform) Resync() error { return p.write(p.current) }
