package rdt

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"satori/internal/sim"
	"satori/internal/workloads"
)

func newFaultTestPlatform(t *testing.T, script FaultScript) *FaultInjector {
	t.Helper()
	profiles := workloads.PARSEC()[:3]
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFaultInjector(inner, script)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// Transient marking must survive wrapping and be absent from ordinary
// errors, since the control loop's retry policies key off it.
func TestTransientErrorChain(t *testing.T) {
	base := errors.New("boom")
	if IsTransient(base) {
		t.Error("bare error reported transient")
	}
	tr := Transient(base)
	if !IsTransient(tr) {
		t.Error("Transient(err) not reported transient")
	}
	wrapped := fmt.Errorf("context: %w", tr)
	if !IsTransient(wrapped) {
		t.Error("wrapped transient not detected through the chain")
	}
	if !errors.Is(wrapped, base) {
		t.Error("cause lost through Transient wrapper")
	}
	if Transient(nil) != nil {
		t.Error("Transient(nil) != nil")
	}
}

// A capability is found through the injector — or a stack of them —
// exactly when the inner platform has it, and the injector itself
// implements none of them.
func TestFaultInjectorPreservesCapabilities(t *testing.T) {
	newSim := func() Platform {
		simulator, err := sim.New(sim.DefaultMachine(), workloads.PARSEC()[:3], sim.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSimPlatform(simulator)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	newResctrl := func() Platform {
		sampler, err := NewTraceSampler([]float64{2e9}, [][]float64{{1e9}})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewResctrlPlatform(sim.DefaultMachine(), []string{"a"},
			ResctrlWriter{Root: t.TempDir()}, sampler, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	inject := func(p Platform) Platform {
		fi, err := NewFaultInjector(p, FaultScript{})
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	capabilities := []struct {
		name string
		has  func(Platform) bool
	}{
		{"Churner", hasCapability[Churner]},
		{"FastSampler", hasCapability[FastSampler]},
		{"BatchSampler", hasCapability[BatchSampler]},
		{"SLOProvider", hasCapability[SLOProvider]},
		{"Grouper", hasCapability[Grouper]},
		{"CLOSLimiter", hasCapability[CLOSLimiter]},
	}
	for _, inner := range []struct {
		name string
		mk   func() Platform
	}{
		{"SimPlatform", newSim},
		{"trace-driven ResctrlPlatform", newResctrl},
		{"injector over SimPlatform", func() Platform { return inject(newSim()) }},
	} {
		bare := inner.mk()
		wrapped := inject(bare)
		for _, c := range capabilities {
			if got, want := c.has(wrapped), c.has(bare); got != want {
				t.Errorf("%s: %s through the injector = %v, inner has it = %v", inner.name, c.name, got, want)
			}
		}
		if fi, ok := As[*FaultInjector](wrapped); !ok || Platform(fi) != wrapped {
			t.Errorf("%s: As[*FaultInjector] did not return the outermost injector", inner.name)
		}
	}
	// Ground truth for the table above, so a regression in As cannot make
	// "equal on both sides" pass vacuously.
	for _, c := range capabilities {
		if !c.has(newSim()) {
			t.Errorf("SimPlatform lacks %s", c.name)
		}
	}
	rp := newResctrl()
	if hasCapability[Churner](rp) || hasCapability[FastSampler](rp) || hasCapability[SLOProvider](rp) {
		t.Error("trace-driven ResctrlPlatform gained a churn, fast-sample or SLO capability")
	}
	if !hasCapability[Grouper](rp) || !hasCapability[CLOSLimiter](rp) {
		t.Error("ResctrlPlatform lacks Grouper or CLOSLimiter")
	}
}

func hasCapability[T any](p Platform) bool { _, ok := As[T](p); return ok }

// budgetDecorator is a decorator as DESIGN.md §7 asks for one: it
// implements what it changes (the CLOS budget) and unwraps the rest.
type budgetDecorator struct {
	Platform
	budget int
}

func (d budgetDecorator) Unwrap() Platform { return d.Platform }
func (d budgetDecorator) MaxCLOS() int     { return d.budget }

// As returns the outermost implementation: a capability the decorator
// implements itself shadows the wrapped platform's (the benchmark's
// tracing decorator, which forwards all six and has no Unwrap, relies on
// this), everything else is found underneath, and a platform that does
// not unwrap ends the search.
func TestAsPrefersTheOuterDecorator(t *testing.T) {
	inner := newFaultTestPlatform(t, FaultScript{})
	sp, _ := As[*SimPlatform](inner)
	sp.maxCLOS = 12
	outer := budgetDecorator{Platform: inner, budget: 3}
	if lim, ok := As[CLOSLimiter](outer); !ok || lim.MaxCLOS() != 3 {
		t.Errorf("As[CLOSLimiter] skipped the decorator's own implementation (ok=%v)", ok)
	}
	if lim, ok := As[CLOSLimiter](inner); !ok || lim.MaxCLOS() != 12 {
		t.Errorf("As[CLOSLimiter] under the decorator: ok=%v", ok)
	}
	if c, ok := As[Churner](outer); !ok || c != Churner(sp) {
		t.Error("As[Churner] did not reach the simulator through two decorators")
	}
	opaque := struct{ Platform }{outer} // forwards the base ops, no Unwrap
	if _, ok := As[Churner](opaque); ok {
		t.Error("As looked through a platform that does not unwrap")
	}
	if _, ok := As[Churner](nil); ok {
		t.Error("As found a capability on a nil platform")
	}
}

// With a zero-value script the injector is a transparent pass-through:
// the sampled stream matches an unwrapped platform's bit for bit.
func TestFaultInjectorTransparentWhenIdle(t *testing.T) {
	profiles := workloads.PARSEC()[:3]
	mk := func() *SimPlatform {
		simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSimPlatform(simulator)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bare := mk()
	wrapped, err := NewFaultInjector(mk(), FaultScript{})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 50; tick++ {
		want, err1 := bare.Sample()
		got, err2 := wrapped.Sample()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("tick %d job %d: %v != %v", tick, j, got[j], want[j])
			}
		}
	}
	if c := wrapped.Counts(); c.Total() != 0 {
		t.Errorf("idle script injected faults: %+v", c)
	}
}

// Scripted faults fire at exactly the scripted per-op call indices, with
// the scripted kinds, and are all counted.
func TestFaultInjectorScriptExact(t *testing.T) {
	slept := 0
	script := FaultScript{
		Faults: []Fault{
			{Op: OpSample, Kind: FaultNaN, Call: 3},
			{Op: OpSample, Kind: FaultNegative, Call: 5},
			{Op: OpSample, Kind: FaultError, Call: 7, Repeat: 2},
			{Op: OpApply, Kind: FaultError, Call: 2, Repeat: 3},
			{Op: OpMeasureIsolated, Kind: FaultError, Call: 1},
			{Op: OpResync, Kind: FaultError, Call: 1},
			{Op: OpSample, Kind: FaultLatency, Call: 10},
		},
		Sleep: func(time.Duration) { slept++ },
	}
	p := newFaultTestPlatform(t, script)

	if _, err := p.MeasureIsolated(); !IsTransient(err) {
		t.Errorf("measure call 1: err = %v, want transient", err)
	}
	if _, err := p.MeasureIsolated(); err != nil {
		t.Errorf("measure call 2: unexpected %v", err)
	}
	if err := p.Resync(); !IsTransient(err) {
		t.Errorf("resync call 1: err = %v, want transient", err)
	}

	for call := 1; call <= 10; call++ {
		ips, err := p.Sample()
		switch call {
		case 3:
			if err != nil || !math.IsNaN(ips[0]) {
				t.Errorf("sample call %d: want NaN corruption, got %v %v", call, ips, err)
			}
		case 5:
			if err != nil || ips[0] >= 0 {
				t.Errorf("sample call %d: want negative corruption, got %v %v", call, ips, err)
			}
		case 7, 8:
			if !IsTransient(err) {
				t.Errorf("sample call %d: err = %v, want transient dropout", call, err)
			}
		default:
			if err != nil {
				t.Errorf("sample call %d: unexpected %v", call, err)
			}
			for j, v := range ips {
				if math.IsNaN(v) || v < 0 {
					t.Errorf("sample call %d job %d: corrupt value %v outside script", call, j, v)
				}
			}
		}
	}

	cfg := p.Space().EqualSplit()
	for call := 1; call <= 5; call++ {
		err := p.Apply(cfg)
		if want := call >= 2 && call <= 4; want != IsTransient(err) {
			t.Errorf("apply call %d: err = %v, want transient=%v", call, err, want)
		}
	}

	want := FaultCounts{
		ApplyErrors: 3, SampleErrors: 2, SampleNaNs: 1, SampleNegatives: 1,
		MeasureErrors: 1, ResyncErrors: 1, Latencies: 1,
	}
	if got := p.Counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if slept != 1 {
		t.Errorf("Sleep hook called %d times, want 1", slept)
	}
	if p.calls[OpSample] != 10 || p.calls[OpApply] != 5 {
		t.Errorf("call counters = sample %d apply %d, want 10, 5", p.calls[OpSample], p.calls[OpApply])
	}
}

// Random-rate injection is reproducible: equal seeds produce identical
// fault sequences, different seeds (virtually always) different ones.
func TestFaultInjectorRandomDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		script := FaultScript{Seed: seed, SampleErrorRate: 0.3}
		p := newFaultTestPlatform(t, script)
		out := make([]bool, 100)
		for i := range out {
			_, err := p.Sample()
			out[i] = err != nil
		}
		return out
	}
	a, b := run(11), run(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: same seed diverged", i)
		}
	}
	c := run(12)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 100-call fault sequences")
	}
}

// A sample dropout must still advance the inner platform's interval: the
// reading is lost, not the time, so the post-fault stream re-aligns with
// an unfaulted replay.
func TestFaultInjectorDropoutAdvancesTime(t *testing.T) {
	mk := func(script FaultScript) Platform {
		p := newFaultTestPlatform(t, script)
		return p
	}
	clean := mk(FaultScript{})
	faulty := mk(FaultScript{Faults: []Fault{{Op: OpSample, Kind: FaultError, Call: 2}}})
	for call := 1; call <= 5; call++ {
		want, err := clean.Sample()
		if err != nil {
			t.Fatal(err)
		}
		got, err := faulty.Sample()
		if call == 2 {
			if err == nil {
				t.Fatal("call 2: dropout did not fire")
			}
			continue
		}
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("call %d: faulted run desynced from clean run (job %d: %v != %v)", call, j, got[j], want[j])
			}
		}
	}
}

// The DSL round-trips into the scripted fault set.
func TestParseFaultScript(t *testing.T) {
	script, err := ParseFaultScript("sample:nan@50, apply:error@100x3 ,resync:error@2,measure:latency@7")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Op: OpSample, Kind: FaultNaN, Call: 50, Repeat: 1},
		{Op: OpApply, Kind: FaultError, Call: 100, Repeat: 3},
		{Op: OpResync, Kind: FaultError, Call: 2, Repeat: 1},
		{Op: OpMeasureIsolated, Kind: FaultLatency, Call: 7, Repeat: 1},
	}
	if len(script.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(script.Faults), len(want))
	}
	for i, f := range script.Faults {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
	if s, err := ParseFaultScript("  "); err != nil || len(s.Faults) != 0 {
		t.Errorf("blank spec: %v %v", s, err)
	}
	for _, bad := range []string{"sample@3", "sample:nan", "bogus:error@1", "sample:weird@1", "apply:error@0", "apply:error@1x0", "apply:nan@1"} {
		if _, err := ParseFaultScript(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

// NewFaultInjector holds one map entry per faulted call, so the parser
// bounds what a script may fault — "apply:error@1x300000000" used to parse
// and then spend 20 s and gigabytes in the injector before tick 1 — and
// keeps call + repeat from overflowing. Only the parser runs here, so a
// regression fails; it does not hang.
func TestParseFaultScriptBoundsWhatTheInjectorHolds(t *testing.T) {
	maxCall := strconv.Itoa(math.MaxInt - 100000)
	for bad, bound := range map[string]string{
		"apply:error@1x300000000":                  "100000",
		"apply:error@1x100001":                     "100000",
		"apply:error@1x60000,sample:error@1x40001": "100000",
		"apply:error@9223372036854775807":          maxCall,
		"apply:error@9223372036854775000x2":        maxCall,
	} {
		if _, err := ParseFaultScript(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		} else if !strings.Contains(err.Error(), bound) {
			t.Errorf("spec %q: the error does not state the bound %s: %v", bad, bound, err)
		}
	}
	script, err := ParseFaultScript("apply:error@1x60000,sample:error@1x40000")
	if err != nil {
		t.Fatalf("a script at the bound is refused: %v", err)
	}
	if _, err := NewFaultInjector(nil, script); err != nil {
		t.Fatal(err)
	}
}

// FaultFatal injects NON-transient errors on every op, so the control
// loop's retry/degradation/breaker machinery must not absorb them — they
// model a dead backend, not a glitch.
func TestFaultInjectorFatalKind(t *testing.T) {
	script := FaultScript{
		Faults: []Fault{
			{Op: OpSample, Kind: FaultFatal, Call: 2},
			{Op: OpApply, Kind: FaultFatal, Call: 1},
			{Op: OpMeasureIsolated, Kind: FaultFatal, Call: 1},
			{Op: OpResync, Kind: FaultFatal, Call: 1},
		},
	}
	p := newFaultTestPlatform(t, script)
	if _, err := p.Sample(); err != nil {
		t.Fatalf("sample call 1: %v", err)
	}
	if _, err := p.Sample(); err == nil || IsTransient(err) {
		t.Errorf("sample call 2: err = %v, want non-transient failure", err)
	}
	if err := p.Apply(p.Space().EqualSplit()); err == nil || IsTransient(err) {
		t.Errorf("apply call 1: err = %v, want non-transient failure", err)
	}
	if _, err := p.MeasureIsolated(); err == nil || IsTransient(err) {
		t.Errorf("measure call 1: err = %v, want non-transient failure", err)
	}
	if err := p.Resync(); err == nil || IsTransient(err) {
		t.Errorf("resync call 1: err = %v, want non-transient failure", err)
	}
	if got := p.Counts().FatalErrors; got != 4 {
		t.Errorf("FatalErrors = %d, want 4", got)
	}
	// The DSL knows the kind on every op.
	s, err := ParseFaultScript("sample:fatal@3, apply:fatal@1, measure:fatal@2, resync:fatal@4x2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Op: OpSample, Kind: FaultFatal, Call: 3, Repeat: 1},
		{Op: OpApply, Kind: FaultFatal, Call: 1, Repeat: 1},
		{Op: OpMeasureIsolated, Kind: FaultFatal, Call: 2, Repeat: 1},
		{Op: OpResync, Kind: FaultFatal, Call: 4, Repeat: 2},
	}
	if len(s.Faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(s.Faults), len(want))
	}
	for i, f := range s.Faults {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
}
