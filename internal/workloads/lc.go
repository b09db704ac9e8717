package workloads

import (
	"fmt"
	"math"

	"satori/internal/sim"
	"satori/internal/slo"
	"satori/internal/stats"
)

// SuiteLC names the latency-critical suite.
const SuiteLC = "lc"

// LC returns the latency-critical profiles: interactive services whose
// observed IPS maps to request latency through the queueing model in
// internal/slo, each carrying a p99 SLO target. The profiles follow the
// PARTIES/CoPart evaluation cast — a key-value store, a front-end
// server, and an interactive search leaf — with resource characters
// chosen so an equal split under-provisions them (tail latency blows
// past the target) while a deliberate partition recovers attainment:
// the regime the SLO experiment measures. Fresh copies on every call.
//
// SLO calibration: each spec's CriticalIPS sits between the job's
// equal-split IPS and its well-provisioned co-located IPS on the
// default 5-job machine, so violation is real but recoverable (see
// TestLCSpecCalibration).
func LC() []*sim.Profile {
	return []*sim.Profile{
		{
			// In-memory key-value store: tiny per-request compute,
			// hot-set way-sensitive, latency-bound with modest core
			// scaling.
			Name: "memcached-lc", Suite: SuiteLC,
			Phases: []sim.Phase{
				phase("serve", 30, 1.8e10, 0.35, 0.036, 0.004, 3.0, 220, 0.45),
			},
			SLO: &slo.Spec{TargetP99: 0.012, ServiceInstructions: 4.0e6, ArrivalRate: 300},
		},
		{
			// Front-end web/proxy server: connection handling with a
			// small hot set; keeps most of its speed on a sliver of
			// the machine, but saturates when starved of cores.
			Name: "nginx-lc", Suite: SuiteLC,
			Phases: []sim.Phase{
				phase("proxy", 25, 1.5e10, 0.45, 0.010, 0.005, 1.4, 80, 0.60),
			},
			SLO: &slo.Spec{TargetP99: 0.015, ServiceInstructions: 8.0e6, ArrivalRate: 400},
		},
		{
			// Interactive search leaf: index lookups against a
			// cache-resident shard — strongly way-sensitive, the
			// classic tail-latency victim of LLC contention.
			Name: "search-lc", Suite: SuiteLC,
			Phases: []sim.Phase{
				phase("query", 28, 2.2e10, 0.30, 0.042, 0.005, 4.2, 240, 0.50),
			},
			SLO: &slo.Spec{TargetP99: 0.020, ServiceInstructions: 8.0e6, ArrivalRate: 100},
		},
	}
}

// cloneProfile deep-copies a profile (phases and SLO spec included) so
// generated mixes can rescale targets without aliasing suite storage.
func cloneProfile(p *sim.Profile) *sim.Profile {
	out := *p
	out.Phases = append([]sim.Phase(nil), p.Phases...)
	if p.SLO != nil {
		spec := *p.SLO
		out.SLO = &spec
	}
	return &out
}

// MixedMixOptions parameterizes MixedMixes. Zero values take defaults.
type MixedMixOptions struct {
	// Suite is the batch suite to draw from (default parsec).
	Suite string
	// Jobs is the co-location size (default 5, the PARSEC mix size).
	Jobs int
	// LCFraction is the fraction of slots holding latency-critical
	// jobs, in (0, 1], rounded to at least one slot (default 0.4).
	LCFraction float64
	// Count is how many mixes to generate (default 10).
	Count int
	// Seed drives all draws; equal options generate equal mixes.
	Seed uint64
	// TargetScaleMin/Max bound the uniform per-job scaling of each LC
	// job's p99 target, modeling a distribution of SLO strictness
	// across service instances (defaults 1/1 = no scaling; a zero
	// maximum is the minimum). Both are finite and positive, the
	// maximum not below the minimum.
	TargetScaleMin, TargetScaleMax float64
}

// fill takes the defaults and refuses what no default covers: a fraction
// outside (0, 1], a scale that is not finite and positive, and a maximum
// below the minimum. A NaN or infinite scale would name a job
// "search-lc--9223372036854775808ms".
func (o MixedMixOptions) fill() (MixedMixOptions, error) {
	if o.Suite == "" {
		o.Suite = SuitePARSEC
	}
	if o.Jobs <= 0 {
		o.Jobs = 5
	}
	if o.LCFraction == 0 {
		o.LCFraction = 0.4
	}
	if o.Count <= 0 {
		o.Count = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TargetScaleMin == 0 {
		o.TargetScaleMin = 1
	}
	if o.TargetScaleMax == 0 {
		o.TargetScaleMax = o.TargetScaleMin
	}
	positive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) } // false for NaN
	switch {
	case !(o.LCFraction > 0 && o.LCFraction <= 1):
		return o, fmt.Errorf("workloads: LC fraction %v: must be in (0, 1]", o.LCFraction)
	case !positive(o.TargetScaleMin):
		return o, fmt.Errorf("workloads: target scale minimum %v: must be finite and > 0", o.TargetScaleMin)
	case !positive(o.TargetScaleMax):
		return o, fmt.Errorf("workloads: target scale maximum %v: must be finite and > 0", o.TargetScaleMax)
	case o.TargetScaleMax < o.TargetScaleMin:
		return o, fmt.Errorf("workloads: target scale maximum %v is below the minimum %v", o.TargetScaleMax, o.TargetScaleMin)
	}
	return o, nil
}

// MixedMixes generates mixed batch+LC co-location mixes: each mix holds
// ceil(Jobs·LCFraction) latency-critical jobs (drawn from LC(), p99
// targets scaled by a uniform draw in [TargetScaleMin, TargetScaleMax])
// and distinct batch jobs drawn from the chosen suite. Scaled LC jobs
// are renamed with their effective target ("search-lc-24ms") so traces
// stay self-describing. Deterministic for equal options.
func MixedMixes(opt MixedMixOptions) ([]Mix, error) {
	opt, err := opt.fill()
	if err != nil {
		return nil, err
	}
	batch, ok := Suites()[opt.Suite]
	if !ok || opt.Suite == SuiteLC {
		return nil, fmt.Errorf("workloads: unknown batch suite %q", opt.Suite)
	}
	nLC := int(math.Ceil(float64(opt.Jobs) * opt.LCFraction))
	if nLC < 1 {
		nLC = 1
	}
	if nLC > opt.Jobs {
		nLC = opt.Jobs
	}
	nBatch := opt.Jobs - nLC
	if nBatch > len(batch) {
		return nil, fmt.Errorf("workloads: mix needs %d batch jobs but suite %q has %d", nBatch, opt.Suite, len(batch))
	}
	lc := LC()
	rng := stats.NewRNG(opt.Seed ^ 0x510C0DE)
	mixes := make([]Mix, opt.Count)
	for m := range mixes {
		ps := make([]*sim.Profile, 0, opt.Jobs)
		for i := 0; i < nLC; i++ {
			p := cloneProfile(lc[rng.Intn(len(lc))])
			scale := opt.TargetScaleMin + (opt.TargetScaleMax-opt.TargetScaleMin)*rng.Float64()
			if scale != 1 {
				p.SLO.TargetP99 *= scale
				p.Name = fmt.Sprintf("%s-%dms", p.Name, int(math.Round(p.SLO.TargetP99*1000)))
			}
			ps = append(ps, p)
		}
		perm := rng.Perm(len(batch))
		for i := 0; i < nBatch; i++ {
			ps = append(ps, batch[perm[i]])
		}
		mixes[m] = Mix{Index: m, Profiles: ps}
	}
	return mixes, nil
}
