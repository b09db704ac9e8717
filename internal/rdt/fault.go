package rdt

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"satori/internal/resource"
	"satori/internal/stats"
)

// TransientError marks a platform failure as retry-safe: the operation
// failed for a reason expected to clear on its own (a busy resctrl file,
// a dropped counter read, a momentary EAGAIN), as opposed to a fatal
// condition (a desynced plan, an exhausted trace, a misconfigured root).
// internal/control's resilience policies only ever retry or absorb
// transient failures; anything else still aborts the run, so a genuine
// deployment bug cannot hide behind the retry machinery.
type TransientError struct {
	Err error
}

// Error implements error.
func (e *TransientError) Error() string { return "rdt: transient: " + e.Err.Error() }

// Unwrap exposes the wrapped cause to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient reports retry-safety (the IsTransient marker method).
func (e *TransientError) Transient() bool { return true }

// Transient wraps err as retry-safe. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether any error in err's chain declares itself
// retry-safe via a `Transient() bool` method (the same duck-typed
// convention net.Error uses for Timeout).
func IsTransient(err error) bool {
	for err != nil {
		if t, ok := err.(interface{ Transient() bool }); ok && t.Transient() {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// FaultOp identifies which Platform operation a fault targets.
type FaultOp int

const (
	// OpApply targets Platform.Apply.
	OpApply FaultOp = iota
	// OpSample targets Platform.Sample.
	OpSample
	// OpMeasureIsolated targets Platform.MeasureIsolated.
	OpMeasureIsolated
	// OpResync targets Platform.Resync.
	OpResync
	numFaultOps
)

// String returns the op's script-DSL name.
func (op FaultOp) String() string {
	switch op {
	case OpApply:
		return "apply"
	case OpSample:
		return "sample"
	case OpMeasureIsolated:
		return "measure"
	case OpResync:
		return "resync"
	}
	return fmt.Sprintf("FaultOp(%d)", int(op))
}

// FaultKind selects what an injected fault does to the targeted call.
type FaultKind int

const (
	// FaultError fails the call with a transient error (an Apply
	// rejection, a Sample dropout, a busy MeasureIsolated/Resync). For
	// OpSample the underlying interval still elapses — the measurement
	// is lost, not the time — so replay determinism is preserved.
	FaultError FaultKind = iota
	// FaultNaN corrupts one job's IPS to NaN (OpSample only): the torn
	//-read/wedged-counter case control.HeldSampleCorrupt exists for.
	FaultNaN
	// FaultNegative corrupts one job's IPS to a negative value
	// (OpSample only).
	FaultNegative
	// FaultLatency delays the call through the script's Sleep hook and
	// then lets it succeed — a slow resctrl write or perf read.
	FaultLatency
	// FaultFatal fails the call with a NON-transient error — a dead
	// counter, an exhausted trace, a misconfigured resctrl root. The
	// control loop's retry/degradation machinery must NOT absorb it:
	// fatal faults abort the run, which is exactly what resilience and
	// fleet error-path tests need to provoke.
	FaultFatal
)

// String returns the kind's script-DSL name.
func (k FaultKind) String() string {
	switch k {
	case FaultError:
		return "error"
	case FaultNaN:
		return "nan"
	case FaultNegative:
		return "negative"
	case FaultLatency:
		return "latency"
	case FaultFatal:
		return "fatal"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scripted fault: Kind fires on the Repeat consecutive
// calls of Op starting at the Call-th call (1-based, counted per op).
type Fault struct {
	Op   FaultOp
	Kind FaultKind
	// Call is the 1-based call index of Op at which the fault starts.
	Call int
	// Repeat is how many consecutive calls fire (default 1).
	Repeat int
}

// FaultScript configures a FaultInjector: a deterministic list of
// scripted faults, optionally layered with seeded random fault rates.
// Scripted faults make counter assertions exact; rates model sustained
// background flakiness in soak runs. Both are fully reproducible — all
// randomness derives from Seed.
type FaultScript struct {
	// Faults fire at exact per-op call indices.
	Faults []Fault
	// Seed drives the random-rate stream (default 1).
	Seed uint64
	// Per-op random fault probabilities in [0, 1). Random sample faults
	// alternate dropout / NaN corruption from the seeded stream.
	ApplyErrorRate, SampleErrorRate, SampleCorruptRate float64
	MeasureErrorRate, ResyncErrorRate                  float64
	// Latency is the delay a FaultLatency fault injects (default 1 ms).
	Latency time.Duration
	// Sleep performs latency injection (default time.Sleep). Tests
	// install a recorder so scripted latency stays wall-clock free.
	Sleep func(time.Duration)
}

// FaultCounts tallies every fault a FaultInjector actually injected,
// keyed the way the control loop's Summary/Health counters observe them
// — the ground truth a soak test reconciles against.
type FaultCounts struct {
	// ApplyErrors counts transient Apply rejections.
	ApplyErrors int
	// SampleErrors counts Sample dropouts (interval elapsed, reading lost).
	SampleErrors int
	// SampleNaNs and SampleNegatives count corrupted Sample readings.
	SampleNaNs, SampleNegatives int
	// MeasureErrors counts failed MeasureIsolated calls.
	MeasureErrors int
	// ResyncErrors counts failed Resync calls.
	ResyncErrors int
	// Latencies counts injected delays (which then succeed).
	Latencies int
	// FatalErrors counts injected NON-transient failures (FaultFatal) —
	// the faults the resilience layers are forbidden to absorb.
	FatalErrors int
}

// Total is the number of injected faults of any kind.
func (c FaultCounts) Total() int {
	return c.ApplyErrors + c.SampleErrors + c.SampleNaNs + c.SampleNegatives +
		c.MeasureErrors + c.ResyncErrors + c.Latencies + c.FatalErrors
}

// FaultInjector is a chaos decorator around any Platform: it implements
// the four operations where every control-loop failure path lives —
// Apply, Sample, MeasureIsolated, Resync — deterministically injecting
// the faults its script calls for (transient rejections, Sample dropouts
// and NaN/negative IPS corruption, latency spikes), and unwraps the rest.
// Every injected error is marked Transient — except the explicit
// FaultFatal kind — so the control loop's retry/degradation policies
// engage exactly as they would for real platform flakiness, and every
// injection is counted so tests can reconcile loop counters against
// ground truth.
//
// The inner platform's optional capabilities stay reachable through
// Unwrap (see As), so churn, fast-sample, SLO and grouping calls reach
// the inner backend un-faulted. Churn resyncs internally; the script's
// resync faults target explicit Resync calls, which keeps counter
// reconciliation exact. With a zero-value script the decorator is a
// transparent pass-through.
type FaultInjector struct {
	inner  Platform
	script FaultScript
	rng    *stats.RNG
	calls  [numFaultOps]int
	counts FaultCounts
	// scripted[op] maps a call index to the fault kind firing there.
	scripted [numFaultOps]map[int]FaultKind
}

// NewFaultInjector wraps inner with the script.
func NewFaultInjector(inner Platform, script FaultScript) (*FaultInjector, error) {
	if script.Seed == 0 {
		script.Seed = 1
	}
	if script.Latency <= 0 {
		script.Latency = time.Millisecond
	}
	if script.Sleep == nil {
		script.Sleep = time.Sleep
	}
	fi := &FaultInjector{inner: inner, script: script, rng: stats.NewRNG(script.Seed)}
	for op := FaultOp(0); op < numFaultOps; op++ {
		fi.scripted[op] = map[int]FaultKind{}
	}
	for _, f := range script.Faults {
		if f.Op < 0 || f.Op >= numFaultOps {
			return nil, fmt.Errorf("rdt: fault script: unknown op %d", int(f.Op))
		}
		if f.Call < 1 {
			return nil, fmt.Errorf("rdt: fault script: %s fault needs a 1-based call index, got %d", f.Op, f.Call)
		}
		if (f.Kind == FaultNaN || f.Kind == FaultNegative) && f.Op != OpSample {
			return nil, fmt.Errorf("rdt: fault script: %s corruption only applies to sample, not %s", f.Kind, f.Op)
		}
		repeat := f.Repeat
		if repeat < 1 {
			repeat = 1
		}
		for i := 0; i < repeat; i++ {
			fi.scripted[f.Op][f.Call+i] = f.Kind
		}
	}
	return fi, nil
}

// Unwrap returns the wrapped platform (see As).
func (f *FaultInjector) Unwrap() Platform { return f.inner }

// Counts returns the faults injected so far.
func (f *FaultInjector) Counts() FaultCounts { return f.counts }

// next advances op's call counter and resolves the fault (if any) firing
// on this call: scripted faults first, then the seeded random stream.
// The random stream draws exactly one uniform per call with a nonzero
// rate, so enabling an op's rate does not perturb other ops' draws.
func (f *FaultInjector) next(op FaultOp, rate, corruptRate float64) (FaultKind, bool) {
	f.calls[op]++
	if k, ok := f.scripted[op][f.calls[op]]; ok {
		return k, true
	}
	if rate <= 0 && corruptRate <= 0 {
		return 0, false
	}
	u := f.rng.Float64()
	if u < rate {
		return FaultError, true
	}
	if u < rate+corruptRate {
		// Alternate the two corruption kinds deterministically.
		if f.counts.SampleNaNs <= f.counts.SampleNegatives {
			return FaultNaN, true
		}
		return FaultNegative, true
	}
	return 0, false
}

// gate resolves this call of Apply, MeasureIsolated or Resync against the
// script: nil lets the call through (after any injected latency), anything
// else is the injected failure, transient ones tallied in *transient.
func (f *FaultInjector) gate(op FaultOp, rate float64, transient *int) error {
	switch kind, fire := f.next(op, rate, 0); {
	case !fire:
	case kind == FaultLatency:
		f.counts.Latencies++
		f.script.Sleep(f.script.Latency)
	case kind == FaultFatal:
		f.counts.FatalErrors++
		return fmt.Errorf("injected fatal %s failure (call %d)", op, f.calls[op])
	default:
		*transient++
		return Transient(fmt.Errorf("injected %s failure (call %d)", op, f.calls[op]))
	}
	return nil
}

// Space implements Platform.
func (f *FaultInjector) Space() *resource.Space { return f.inner.Space() }

// Current implements Platform.
func (f *FaultInjector) Current() resource.Config { return f.inner.Current() }

// JobNames implements Platform.
func (f *FaultInjector) JobNames() []string { return f.inner.JobNames() }

// Apply implements Platform, injecting rejections and latency spikes.
func (f *FaultInjector) Apply(c resource.Config) error {
	if err := f.gate(OpApply, f.script.ApplyErrorRate, &f.counts.ApplyErrors); err != nil {
		return err
	}
	return f.inner.Apply(c)
}

// Sample implements Platform. A FaultError dropout still advances the
// inner platform's interval — the 100 ms elapsed on the machine, only
// the reading was lost — so a faulted run stays tick-aligned with a
// clean one. Corruption faults flip job 0's reading to NaN or a negative
// value after the genuine sample.
func (f *FaultInjector) Sample() ([]float64, error) {
	kind, fire := f.next(OpSample, f.script.SampleErrorRate, f.script.SampleCorruptRate)
	if fire && kind == FaultLatency {
		f.counts.Latencies++
		f.script.Sleep(f.script.Latency)
	}
	ips, err := f.inner.Sample()
	if err != nil || !fire || kind == FaultLatency {
		return ips, err
	}
	switch kind {
	case FaultError:
		f.counts.SampleErrors++
		return nil, Transient(fmt.Errorf("injected sample dropout (call %d)", f.calls[OpSample]))
	case FaultFatal:
		f.counts.FatalErrors++
		return nil, fmt.Errorf("injected fatal sample failure (call %d)", f.calls[OpSample])
	case FaultNaN:
		f.counts.SampleNaNs++
		out := append([]float64(nil), ips...)
		out[0] = math.NaN()
		return out, nil
	case FaultNegative:
		f.counts.SampleNegatives++
		out := append([]float64(nil), ips...)
		out[0] = -out[0] - 1
		return out, nil
	}
	return ips, nil
}

// MeasureIsolated implements Platform, injecting failures.
func (f *FaultInjector) MeasureIsolated() ([]float64, error) {
	if err := f.gate(OpMeasureIsolated, f.script.MeasureErrorRate, &f.counts.MeasureErrors); err != nil {
		return nil, err
	}
	return f.inner.MeasureIsolated()
}

// Resync implements Platform, injecting failures.
func (f *FaultInjector) Resync() error {
	if err := f.gate(OpResync, f.script.ResyncErrorRate, &f.counts.ResyncErrors); err != nil {
		return err
	}
	return f.inner.Resync()
}

// ParseFaultScript parses the compact fault-script DSL used by command
// lines (the -fault flag of cmd/satori and cmd/satorid):
//
//	spec     := entry ("," entry)*
//	entry    := op ":" kind "@" call ["x" repeat]
//	op       := "apply" | "sample" | "measure" | "resync"
//	kind     := "error" | "nan" | "negative" | "latency" | "fatal"
//
// e.g. "sample:nan@50,apply:error@100x3,resync:error@200" injects a NaN
// reading on the 50th sample, rejects the 100th–102nd applies, and fails
// the 200th resync. Call indices are 1-based and per-op; a script faults
// at most 100 000 calls in all.
func ParseFaultScript(spec string) (FaultScript, error) {
	var script FaultScript
	if strings.TrimSpace(spec) == "" {
		return script, nil
	}
	// NewFaultInjector holds one map entry per faulted call, so how many a
	// script faults in all is bounded here, where it enters: 100 000 calls
	// is close to three hours of consecutive failures at 10 Hz.
	const maxFaulted = 100000
	faulted := 0
	ops := map[string]FaultOp{"apply": OpApply, "sample": OpSample, "measure": OpMeasureIsolated, "resync": OpResync}
	kinds := map[string]FaultKind{"error": FaultError, "nan": FaultNaN, "negative": FaultNegative, "latency": FaultLatency, "fatal": FaultFatal}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		opKind, at, ok := strings.Cut(entry, "@")
		if !ok {
			return script, fmt.Errorf("rdt: fault spec %q: missing @call", entry)
		}
		opName, kindName, ok := strings.Cut(opKind, ":")
		if !ok {
			return script, fmt.Errorf("rdt: fault spec %q: want op:kind@call", entry)
		}
		op, ok := ops[opName]
		if !ok {
			return script, fmt.Errorf("rdt: fault spec %q: unknown op %q (valid: %s)", entry, opName, keyList(ops))
		}
		kind, ok := kinds[kindName]
		if !ok {
			return script, fmt.Errorf("rdt: fault spec %q: unknown kind %q (valid: %s)", entry, kindName, keyList(kinds))
		}
		if (kind == FaultNaN || kind == FaultNegative) && op != OpSample {
			return script, fmt.Errorf("rdt: fault spec %q: %s corruption only applies to sample", entry, kind)
		}
		callStr, repeatStr, hasRepeat := strings.Cut(at, "x")
		call, err := strconv.Atoi(callStr)
		if err != nil || call < 1 || call > math.MaxInt-maxFaulted {
			return script, fmt.Errorf("rdt: fault spec %q: bad call index %q (valid: 1 to %d)", entry, callStr, math.MaxInt-maxFaulted)
		}
		repeat := 1
		if hasRepeat {
			repeat, err = strconv.Atoi(repeatStr)
			if err != nil || repeat < 1 {
				return script, fmt.Errorf("rdt: fault spec %q: bad repeat %q", entry, repeatStr)
			}
		}
		if repeat > maxFaulted-faulted {
			return script, fmt.Errorf("rdt: fault spec %q: repeat %d takes the script past %d faulted calls, the most it may hold", entry, repeat, maxFaulted)
		}
		faulted += repeat
		script.Faults = append(script.Faults, Fault{Op: op, Kind: kind, Call: call, Repeat: repeat})
	}
	return script, nil
}

// keyList renders a map's keys sorted, for error messages.
func keyList[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
