package main

import (
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/slo"
)

// simBackend is everything the simulator platform offers: the base
// Platform plus all six optional capabilities. The traced wrapper forwards
// every one of them, so the control loop probes the same capabilities and
// takes the same paths as on the bare platform.
type simBackend interface {
	rdt.Platform
	rdt.Churner
	rdt.BatchSampler // includes FastSampler
	rdt.SLOProvider
	rdt.Grouper
	rdt.CLOSLimiter
}

// tracedPlatform records one span per call the program makes into the
// platform, and checks every configuration the platform accepted.
type tracedPlatform struct {
	in simBackend
	tr *tracer
}

// tracePlatform wraps p. A platform without the full simulator capability
// set is returned unwrapped rather than silently losing a capability.
func tracePlatform(p rdt.Platform, tr *tracer) rdt.Platform {
	if b, ok := p.(simBackend); ok {
		return &tracedPlatform{in: b, tr: tr}
	}
	return p
}

func (p *tracedPlatform) Space() *resource.Space   { return p.in.Space() }
func (p *tracedPlatform) Current() resource.Config { return p.in.Current() }
func (p *tracedPlatform) JobNames() []string       { return p.in.JobNames() }
func (p *tracedPlatform) Resync() error            { return p.in.Resync() }
func (p *tracedPlatform) NumJobs() int             { return p.in.NumJobs() }
func (p *tracedPlatform) FastHorizon() int         { return p.in.FastHorizon() }
func (p *tracedPlatform) SLOSpecs() []*slo.Spec    { return p.in.SLOSpecs() }
func (p *tracedPlatform) MaxCLOS() int             { return p.in.MaxCLOS() }

func (p *tracedPlatform) Grouping() *resource.Grouping { return p.in.Grouping() }

func (p *tracedPlatform) SetGrouping(g *resource.Grouping) error { return p.in.SetGrouping(g) }

func (p *tracedPlatform) Apply(c resource.Config) error {
	s := p.tr.child(spanApply)
	err := p.in.Apply(c)
	p.tr.end(s)
	if err == nil && p.in.Space().Validate(c) != nil {
		p.tr.invalid.Add(1)
	}
	return err
}

func (p *tracedPlatform) Sample() ([]float64, error) {
	s := p.tr.child(spanSample)
	ips, err := p.in.Sample()
	p.tr.end(s)
	return ips, err
}

func (p *tracedPlatform) MeasureIsolated() ([]float64, error) {
	s := p.tr.child(spanMeasure)
	iso, err := p.in.MeasureIsolated()
	p.tr.end(s)
	return iso, err
}

func (p *tracedPlatform) SampleFast() ([]float64, bool) {
	s := p.tr.child(spanSampleFast)
	ips, ok := p.in.SampleFast()
	p.tr.end(s)
	return ips, ok
}

func (p *tracedPlatform) SkipFast(n int) bool {
	s := p.tr.child(spanSkipFast)
	ok := p.in.SkipFast(n)
	p.tr.end(s)
	return ok
}

func (p *tracedPlatform) AddJob(profile *sim.Profile) error {
	s := p.tr.child(spanChurn)
	err := p.in.AddJob(profile)
	p.tr.end(s)
	return err
}

func (p *tracedPlatform) RemoveJob(j int) error {
	s := p.tr.child(spanChurn)
	err := p.in.RemoveJob(j)
	p.tr.end(s)
	return err
}

func (p *tracedPlatform) ReplaceJob(j int, profile *sim.Profile) error {
	s := p.tr.child(spanChurn)
	err := p.in.ReplaceJob(j, profile)
	p.tr.end(s)
	return err
}

// tracedPolicy records one span per Decide. parent, when set, overrides the
// tracer's in-flight op (suite cells run in parallel, each under its own
// cell span).
type tracedPolicy struct {
	in     policy.Policy
	tr     *tracer
	parent int32
	cell   bool
}

func (p *tracedPolicy) Name() string { return p.in.Name() }

func (p *tracedPolicy) Decide(obs policy.Observation, current resource.Config) resource.Config {
	var s int32
	if p.cell {
		s = p.tr.begin(spanDecide, p.parent, int32(obs.Tick))
	} else {
		s = p.tr.child(spanDecide)
	}
	next := p.in.Decide(obs, current)
	p.tr.end(s)
	if p.cell {
		// A cell's span has no call site outside harness.RunSuite to
		// close it; its last Decide is the latest moment visible from
		// here, so every Decide moves the cell's end forward.
		p.tr.end(p.parent)
	}
	return next
}

// Unwrap returns the wrapped policy, for reading engine counters.
func (p *tracedPolicy) Unwrap() policy.Policy { return p.in }

// tracedRegrouper is tracedPolicy for policies that report cluster
// migrations: the control loop discovers that capability by type
// assertion, so the wrapper must have it exactly when the policy does.
type tracedRegrouper struct {
	tracedPolicy
	regroups func() int
}

func (p *tracedRegrouper) Regroups() int { return p.regroups() }

func tracePolicy(in policy.Policy, tr *tracer) policy.Policy {
	base := tracedPolicy{in: in, tr: tr}
	if r, ok := in.(interface{ Regroups() int }); ok {
		return &tracedRegrouper{tracedPolicy: base, regroups: r.Regroups}
	}
	return &base
}

// unwrapPolicy strips a tracing wrapper, if any.
func unwrapPolicy(p policy.Policy) policy.Policy {
	if u, ok := p.(interface{ Unwrap() policy.Policy }); ok {
		return u.Unwrap()
	}
	return p
}
