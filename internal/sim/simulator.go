package sim

import (
	"fmt"
	"math"
	"strconv"

	"satori/internal/resource"
	"satori/internal/slo"
	"satori/internal/stats"
)

// TickSeconds is the monitoring and reconfiguration interval: 100 ms,
// matching the paper's 10 Hz pqos sampling and 0.1 s allocation updates.
const TickSeconds = 0.1

// Options tunes simulator construction.
type Options struct {
	// Seed drives all simulator randomness; equal seeds replay
	// identically.
	Seed uint64
	// NoiseSigma is the relative std-dev of multiplicative measurement
	// noise on observed IPS. Defaults to 0.02 (~2%, typical for pqos
	// counters on short windows). Set negative for noise-free runs.
	NoiseSigma float64
}

// Simulator co-locates a set of jobs on one machine and advances time in
// 100 ms ticks under a current resource partitioning configuration.
type Simulator struct {
	spec  MachineSpec
	space *resource.Space
	jobs  []*job
	rng   *stats.RNG
	sigma float64

	current resource.Config
	ticks   int
	applies int // number of Apply calls that changed the configuration

	iCores, iWays, iBW, iPower int // resource row indices

	// Sampled-simulation state (Pac-Sim style): the noise-free model IPS
	// of every job as computed by the last detailed Step, valid only
	// while nothing that feeds ipsModel can have moved — same phases,
	// same configuration, same job set. StepSampled extrapolates from it.
	modelIPS []float64
	ipsValid bool
}

type job struct {
	profile  *Profile
	phaseIdx int
	workDone float64 // instructions completed in the current phase
	// critical caches profile.SLO.CriticalIPS() for latency-critical
	// jobs (0 for batch): the model-IPS threshold below which the job
	// violates its p99 target, consulted by the extrapolation guards.
	critical float64
}

func newJob(p *Profile) *job {
	j := &job{profile: p}
	if p.SLO != nil {
		j.critical = p.SLO.CriticalIPS()
	}
	return j
}

// New builds a simulator running one job per profile, starting from the
// equal-split configuration of Algorithm 1.
func New(spec MachineSpec, profiles []*Profile, opt Options) (*Simulator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("sim: need at least one job")
	}
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	space, err := spec.Space(len(profiles))
	if err != nil {
		return nil, err
	}
	sigma := opt.NoiseSigma
	if sigma == 0 {
		sigma = 0.02
	}
	if sigma < 0 {
		sigma = 0
	}
	s := &Simulator{
		spec:   spec,
		space:  space,
		rng:    stats.NewRNG(opt.Seed ^ 0x5A70121),
		sigma:  sigma,
		iCores: resourceIndex(space, resource.Cores),
		iWays:  resourceIndex(space, resource.LLCWays),
		iBW:    resourceIndex(space, resource.MemBW),
		iPower: resourceIndex(space, resource.Power),
	}
	for _, p := range profiles {
		s.jobs = append(s.jobs, newJob(p))
	}
	s.current = space.EqualSplit()
	return s, nil
}

// Space returns the configuration space of this co-location.
func (s *Simulator) Space() *resource.Space { return s.space }

// NumJobs returns the number of co-located jobs.
func (s *Simulator) NumJobs() int { return len(s.jobs) }

// JobName returns the profile name of job j.
func (s *Simulator) JobName(j int) string { return s.jobs[j].profile.Name }

// SLOSpecs returns the per-slot SLO specs of the live job set, nil
// entries marking batch jobs. The slice is freshly allocated (callers
// hold it across churn); it is nil-safe to range even when no job is
// latency-critical.
func (s *Simulator) SLOSpecs() []*slo.Spec {
	specs := make([]*slo.Spec, len(s.jobs))
	for j, jb := range s.jobs {
		specs[j] = jb.profile.SLO
	}
	return specs
}

// nearSLOBoundary reports whether a latency-critical job's cached model
// IPS sits within the onset margin of its critical rate — close enough
// that per-tick noise can flip the violation verdict. Extrapolation
// fast paths refuse inside the band so an SLO-violation onset is never
// jumped over; batch jobs (critical == 0) never trigger it.
func (s *Simulator) nearSLOBoundary(jb *job, ips float64) bool {
	if jb.critical == 0 {
		return false
	}
	return math.Abs(ips-jb.critical) <= slo.DefaultOnsetMargin*jb.critical
}

// Now returns the simulated time in seconds.
func (s *Simulator) Now() float64 { return float64(s.ticks) * TickSeconds }

// Applies returns how many configuration changes have been applied — the
// reconfiguration count used in overhead accounting.
func (s *Simulator) Applies() int { return s.applies }

// Current returns (a copy of) the active configuration.
func (s *Simulator) Current() resource.Config { return s.current.Clone() }

// CurrentEquals reports whether c equals the installed configuration,
// without cloning either side — the steady-state fast path for backends
// that elide re-applying an unchanged partition.
func (s *Simulator) CurrentEquals(c resource.Config) bool { return s.current.Equal(c) }

// CheckShape reports a *resource.ConfigShapeError when c's dimensions do
// not match the live space (e.g. a configuration decided before
// AddJob/RemoveJob changed the job set), and nil when the shape is current.
// It checks only dimensions, not allocation sums — Apply still runs full
// validation.
func (s *Simulator) CheckShape(c resource.Config) error {
	return resource.CheckShape(s.space, c)
}

// Apply installs a new resource partitioning configuration, taking effect
// from the next Step. Identical configurations are deduplicated (real
// CAT/MBA MSR writes are skipped when nothing changes). A configuration
// shaped for a different job set (stale after AddJob/RemoveJob) is
// rejected with a typed *resource.ConfigShapeError rather than silently
// misallocating.
func (s *Simulator) Apply(c resource.Config) error {
	if err := s.CheckShape(c); err != nil {
		return err
	}
	if err := s.space.Validate(c); err != nil {
		return err
	}
	if !s.current.Equal(c) {
		s.current = c.Clone()
		s.applies++
		// A new partition changes every job's model IPS: force the next
		// tick through the detailed path.
		s.ipsValid = false
	}
	return nil
}

// AppendPhaseKey appends a key for the jobs' joint phase state to dst and
// returns the extended slice: slot by slot, the profile's name (length-
// prefixed) and the index of its current phase. The noise-free model
// (ExactIPS, ExactIsolated) depends on nothing else, so a search over it
// can be cached under this key. Phase names alone are not enough: several
// profiles share one ("serve", "query", "smooth"), and ReplaceJob can put
// such a pair in the same slot.
func (s *Simulator) AppendPhaseKey(dst []byte) []byte {
	for _, jb := range s.jobs {
		dst = strconv.AppendInt(dst, int64(len(jb.profile.Name)), 10)
		dst = append(dst, ':')
		dst = append(dst, jb.profile.Name...)
		dst = strconv.AppendInt(dst, int64(jb.phaseIdx), 10)
		dst = append(dst, '|')
	}
	return dst
}

// ReplaceJob swaps job j's workload for a new profile, modeling a job
// departure followed by a new arrival in the same slot (the workload-mix
// change of Algorithm 1 line 12). The new job starts at its first phase;
// the resource partition is left untouched — it is the policy's task to
// adapt, which Sec. III-C notes requires no re-initialization in SATORI.
func (s *Simulator) ReplaceJob(j int, p *Profile) error {
	if j < 0 || j >= len(s.jobs) {
		return fmt.Errorf("sim: ReplaceJob index %d out of range (%d jobs)", j, len(s.jobs))
	}
	if err := p.Validate(); err != nil {
		return err
	}
	s.jobs[j] = newJob(p)
	s.ipsValid = false
	return nil
}

// AddJob admits a new job running profile p, growing the co-location by
// one slot (the fleet layer's job-arrival path). The configuration space
// changes dimension, so the partition is re-split to the equal split of
// the new job set and every previously issued *resource.Space pointer and
// configuration becomes stale: callers must re-measure isolated baselines
// and re-initialize any policy bound to the old space (the session layer
// does both). Fails without side effects when the machine cannot give one
// unit of every resource to each job.
func (s *Simulator) AddJob(p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	space, err := s.spec.Space(len(s.jobs) + 1)
	if err != nil {
		return fmt.Errorf("sim: AddJob: %w", err)
	}
	s.jobs = append(s.jobs, newJob(p))
	s.installSpace(space)
	return nil
}

// RemoveJob evicts job j (a departure), shrinking the co-location by one
// slot; jobs above j shift down by one index. Like AddJob this re-splits
// the partition and invalidates all prior Space pointers and
// configurations. The last job cannot be removed — an empty machine has
// no configuration space; tear the simulator down instead.
func (s *Simulator) RemoveJob(j int) error {
	if j < 0 || j >= len(s.jobs) {
		return fmt.Errorf("sim: RemoveJob index %d out of range (%d jobs)", j, len(s.jobs))
	}
	if len(s.jobs) == 1 {
		return fmt.Errorf("sim: RemoveJob would leave zero jobs; a co-location needs at least one")
	}
	space, err := s.spec.Space(len(s.jobs) - 1)
	if err != nil {
		return fmt.Errorf("sim: RemoveJob: %w", err)
	}
	s.jobs = append(s.jobs[:j], s.jobs[j+1:]...)
	s.installSpace(space)
	return nil
}

// installSpace swaps in the re-dimensioned space after membership churn
// and resets the partition to its equal split (counted as a
// reconfiguration: real hardware would rewrite every COS).
func (s *Simulator) installSpace(space *resource.Space) {
	s.space = space
	s.iCores = resourceIndex(space, resource.Cores)
	s.iWays = resourceIndex(space, resource.LLCWays)
	s.iBW = resourceIndex(space, resource.MemBW)
	s.iPower = resourceIndex(space, resource.Power)
	s.current = space.EqualSplit()
	s.applies++
	s.ipsValid = false
}

// phase returns job j's current phase.
func (j *job) phase() Phase { return j.profile.Phases[j.phaseIdx] }

// alloc extracts job j's units of every resource from config c.
type alloc struct {
	cores, ways, bw, power int
}

func (s *Simulator) jobAlloc(c resource.Config, j int) alloc {
	a := alloc{
		cores: c.Alloc[s.iCores][j],
		ways:  c.Alloc[s.iWays][j],
		bw:    c.Alloc[s.iBW][j],
	}
	if s.iPower >= 0 {
		a.power = c.Alloc[s.iPower][j]
	}
	return a
}

// fullAlloc is the whole machine (isolated execution).
func (s *Simulator) fullAlloc() alloc {
	return alloc{cores: s.spec.Cores, ways: s.spec.LLCWays, bw: s.spec.MemBWUnits, power: s.spec.PowerUnits}
}

// amdahl returns the parallel speedup on c cores for serial fraction f.
func amdahl(c int, f float64) float64 {
	return 1 / (f + (1-f)/float64(c))
}

// mpi evaluates the phase's miss-ratio curve at w ways.
func (p Phase) mpi(w int) float64 {
	return p.MPIMin + (p.MPIMax-p.MPIMin)*math.Exp(-float64(w-1)/p.WaysHalf)
}

// ipsModel returns the noise-free instantaneous IPS of phase p under
// allocation a on machine m.
func (s *Simulator) ipsModel(p Phase, a alloc) float64 {
	coreScale := amdahl(a.cores, p.SerialFrac) / amdahl(s.spec.Cores, p.SerialFrac)
	mpi := p.mpi(a.ways)
	ipsCompute := p.IPSPeak * coreScale / (1 + p.MemStallCost*mpi)
	ips := ipsCompute
	if mpi > 0 {
		bwBytes := float64(a.bw) * s.spec.MemBWBytesPerUnit
		if bound := bwBytes / (mpi * s.spec.LineBytes); bound < ips {
			ips = bound
		}
	}
	if s.iPower >= 0 && s.spec.PowerUnits > 0 {
		// First-order DVFS model: a job's power need is proportional
		// to its core share; an under-provisioned power share clips
		// frequency down to the floor, scaled by the phase's
		// sensitivity to frequency.
		need := float64(a.cores) / float64(s.spec.Cores)
		frac := float64(a.power) / float64(s.spec.PowerUnits)
		satisfaction := 1.0
		if need > 0 && frac < need {
			satisfaction = frac / need
		}
		scale := s.spec.MinPowerScale + (1-s.spec.MinPowerScale)*satisfaction
		ips *= 1 - p.PowerSensitivity*(1-scale)
	}
	return ips
}

// ExactIPS returns the noise-free instantaneous per-job IPS the machine
// would deliver under configuration c at the jobs' current phases,
// without advancing time. This is the "oracle knowledge" entry point used
// by the brute-force Oracle policies.
func (s *Simulator) ExactIPS(c resource.Config) ([]float64, error) {
	out := make([]float64, len(s.jobs))
	if err := s.ExactIPSInto(out, c); err != nil {
		return nil, err
	}
	return out, nil
}

// ExactIPSInto is ExactIPS writing into out, which must hold one entry
// per job. Nothing is written when c is invalid.
func (s *Simulator) ExactIPSInto(out []float64, c resource.Config) error {
	if err := s.space.Validate(c); err != nil {
		return err
	}
	for j := range s.jobs {
		out[j] = s.ExactJobIPS(c, j)
	}
	return nil
}

// ExactJobIPS returns job j's entry of ExactIPS(c), bit for bit, without
// validating c. It reads only job j's current phase and job j's column of
// c, so a one-unit move between two jobs changes only their two entries.
func (s *Simulator) ExactJobIPS(c resource.Config, j int) float64 {
	return s.ipsModel(s.jobs[j].phase(), s.jobAlloc(c, j))
}

// ExactIsolated returns the noise-free isolated (whole-machine) IPS of
// every job at its current phase.
func (s *Simulator) ExactIsolated() []float64 {
	out := make([]float64, len(s.jobs))
	full := s.fullAlloc()
	for j, jb := range s.jobs {
		out[j] = s.ipsModel(jb.phase(), full)
	}
	return out
}

// MeasureIsolated returns a noisy measurement of each job's isolated IPS
// at its current phase — the baseline (re)recording of Algorithm 1
// lines 3 and 13. Like the paper's implementation it does not advance
// co-location time.
func (s *Simulator) MeasureIsolated() []float64 {
	out := s.ExactIsolated()
	for j := range out {
		out[j] = s.noisy(out[j])
	}
	return out
}

func (s *Simulator) noisy(x float64) float64 {
	if s.sigma == 0 {
		return x
	}
	v := x * (1 + s.sigma*s.rng.NormFloat64())
	if min := 0.01 * x; v < min {
		v = min
	}
	return v
}

// Sample is one tick's observation, as a pqos-style monitor would report.
type Sample struct {
	// Tick is the index of the completed step (first step = 1).
	Tick int
	// Time is the simulation time at the end of the step, seconds.
	Time float64
	// IPS is the observed (noisy) per-job instructions/second over the
	// step.
	IPS []float64
	// PhaseChanged flags jobs that crossed a phase boundary during the
	// step.
	PhaseChanged []bool
}

// Step advances the simulation by one 100 ms tick under the current
// configuration and returns the monitoring sample. Work progresses at the
// model rate, crossing phase boundaries mid-tick exactly.
func (s *Simulator) Step() Sample {
	dt := TickSeconds
	sample := Sample{
		Tick:         s.ticks + 1,
		IPS:          make([]float64, len(s.jobs)),
		PhaseChanged: make([]bool, len(s.jobs)),
	}
	if cap(s.modelIPS) < len(s.jobs) {
		s.modelIPS = make([]float64, len(s.jobs))
	}
	s.modelIPS = s.modelIPS[:len(s.jobs)]
	valid := true
	for j, jb := range s.jobs {
		a := s.jobAlloc(s.current, j)
		remaining := dt
		done := 0.0
		advanced := false
		for remaining > 1e-12 {
			p := jb.phase()
			ips := s.ipsModel(p, a)
			if ips <= 0 {
				break
			}
			left := p.Instructions - jb.workDone
			if t := left / ips; t <= remaining {
				// Phase completes mid-tick.
				done += left
				remaining -= t
				jb.workDone = 0
				jb.phaseIdx = (jb.phaseIdx + 1) % len(jb.profile.Phases)
				sample.PhaseChanged[j] = true
			} else {
				adv := ips * remaining
				jb.workDone += adv
				done += adv
				remaining = 0
				s.modelIPS[j] = ips
				advanced = true
			}
		}
		// The extrapolation cache only carries across ticks in which the
		// whole step was one partial advance at a steady model rate: a
		// crossed phase boundary or a stalled job changes the rate.
		if sample.PhaseChanged[j] || !advanced {
			valid = false
		}
		sample.IPS[j] = s.noisy(done / dt)
	}
	s.ipsValid = valid
	s.ticks++
	sample.Time = s.Now()
	return sample
}

// SampledHorizon returns a conservative count of consecutive StepSampled
// calls guaranteed to succeed from the current state — the lookahead an
// event-driven caller uses to defer a run of ticks in one decision. 0
// means the next tick needs a detailed Step (no valid extrapolation
// cache, or a phase boundary within one tick). The bound is conservative
// against floating-point drift: workDone accumulates by repeated adds in
// StepSampled, so the analytic count is shortened by one tick; a caller
// that overruns it is refused by StepSampled as usual, never corrupted.
func (s *Simulator) SampledHorizon() int {
	if !s.ipsValid || len(s.modelIPS) != len(s.jobs) {
		return 0
	}
	dt := TickSeconds
	h := math.MaxInt
	for j, jb := range s.jobs {
		ips := s.modelIPS[j]
		if ips <= 0 {
			return 0
		}
		// An LC job running near its critical rate is treated like an
		// imminent phase edge: the violation verdict could flip any
		// tick, so no extrapolation horizon is promised at all.
		if s.nearSLOBoundary(jb, ips) {
			return 0
		}
		left := jb.phase().Instructions - jb.workDone
		// The m-th sampled tick succeeds iff m < left/(ips·dt) (each
		// prior tick consumed ips·dt instructions); floor minus one
		// absorbs the add-vs-multiply rounding difference.
		k := int(left/(ips*dt)) - 1
		if k < h {
			h = k
		}
	}
	if h < 0 {
		return 0
	}
	return h
}

// SkipSampled advances n ticks in one coarse jump: every job retires
// n·dt·modelIPS instructions in a single multiply, with no per-tick noise
// draws and no Sample construction. It refuses (returning false, state
// untouched) unless n is within SampledHorizon, so the jump never crosses
// a phase boundary. Unlike StepSampled, the resulting state is NOT
// bit-identical to n detailed ticks — noise-free progress drifts from the
// lockstep trajectory by the accumulated noise term — but it is a pure
// function of the pre-skip state, so replays and parallel interleavings
// agree exactly. The RNG stream is not consumed.
func (s *Simulator) SkipSampled(n int) bool {
	if n <= 0 {
		return true
	}
	if n > s.SampledHorizon() {
		return false
	}
	dt := TickSeconds
	for j, jb := range s.jobs {
		jb.workDone += float64(n) * s.modelIPS[j] * dt
	}
	s.ticks += n
	return true
}

// StepSampled advances one tick by extrapolation (Pac-Sim style sampled
// simulation): instead of re-evaluating the analytical model it reuses
// each job's noise-free IPS cached by the last detailed Step, drawing the
// same single noise sample per job. ok is false — with NO side effects —
// whenever extrapolation would diverge from a detailed step: no valid
// cache (configuration change, churn, or a stall since the last detailed
// tick) or an imminent phase-boundary crossing; the caller must then run
// the detailed Step. When ok is true the returned sample, the RNG stream,
// and all job state are bit-identical to what Step would have produced,
// which is what lets sampled runs share committed goldens.
func (s *Simulator) StepSampled() (Sample, bool) {
	if !s.ipsValid || len(s.modelIPS) != len(s.jobs) {
		return Sample{}, false
	}
	dt := TickSeconds
	// Refusal pass before any mutation: a job whose phase would complete
	// this tick needs the detailed mid-tick crossing logic. The guard is
	// the detailed branch condition verbatim, so the sampled path is taken
	// exactly when Step would take the single partial-advance branch.
	for j, jb := range s.jobs {
		ips := s.modelIPS[j]
		left := jb.phase().Instructions - jb.workDone
		if t := left / ips; t <= dt {
			return Sample{}, false
		}
		// Near an SLO-violation boundary the caller must fall back to
		// detailed stepping, mirroring SampledHorizon's refusal.
		if s.nearSLOBoundary(jb, ips) {
			return Sample{}, false
		}
	}
	sample := Sample{
		Tick:         s.ticks + 1,
		IPS:          make([]float64, len(s.jobs)),
		PhaseChanged: make([]bool, len(s.jobs)),
	}
	for j, jb := range s.jobs {
		// adv, workDone, and the noisy(adv/dt) observation replicate the
		// detailed partial-advance arithmetic exactly (done starts at 0,
		// so done += adv is adv bit-for-bit).
		adv := s.modelIPS[j] * dt
		jb.workDone += adv
		sample.IPS[j] = s.noisy(adv / dt)
	}
	s.ticks++
	sample.Time = s.Now()
	return sample, true
}
