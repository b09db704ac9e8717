package slo

import (
	"math"
	"testing"
)

func spec() *Spec {
	return &Spec{TargetP99: 0.030, ServiceInstructions: 2e7, ArrivalRate: 300}
}

func TestSpecValidate(t *testing.T) {
	if err := spec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []*Spec{
		{TargetP99: 0, ServiceInstructions: 1e7, ArrivalRate: 100},
		{TargetP99: 0.03, ServiceInstructions: -1, ArrivalRate: 100},
		{TargetP99: 0.03, ServiceInstructions: 1e7, ArrivalRate: 0},
		{TargetP99: math.Inf(1), ServiceInstructions: 1e7, ArrivalRate: 100},
		{TargetP99: math.NaN(), ServiceInstructions: 1e7, ArrivalRate: 100},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestLatencyModel(t *testing.T) {
	s := spec()
	// Saturated queue: mu <= lambda => infinite latency, zero attainment.
	sat := s.ArrivalRate * s.ServiceInstructions
	if !math.IsInf(s.P99(sat), 1) {
		t.Fatalf("P99 at saturation = %v, want +Inf", s.P99(sat))
	}
	if got := s.AttainFrac(sat); got != 0 {
		t.Fatalf("AttainFrac at saturation = %v, want 0", got)
	}
	if got := s.Headroom(sat); got != 0 {
		t.Fatalf("Headroom at saturation = %v, want 0", got)
	}

	// Latency quantiles are ordered and decrease with more IPS.
	ips := 1.2 * s.CriticalIPS()
	if !(s.P50(ips) < s.P95(ips) && s.P95(ips) < s.P99(ips)) {
		t.Fatalf("quantiles not ordered: p50=%v p95=%v p99=%v", s.P50(ips), s.P95(ips), s.P99(ips))
	}
	if !(s.P99(2*ips) < s.P99(ips)) {
		t.Fatalf("P99 not decreasing in IPS")
	}
}

func TestCriticalIPSBoundary(t *testing.T) {
	s := spec()
	crit := s.CriticalIPS()
	// At the critical rate p99 equals the target (to rounding) and
	// attainment is exactly 0.99.
	if p99 := s.P99(crit); math.Abs(p99-s.TargetP99) > 1e-12 {
		t.Fatalf("P99(critical) = %v, want %v", p99, s.TargetP99)
	}
	if af := s.AttainFrac(crit); math.Abs(af-0.99) > 1e-12 {
		t.Fatalf("AttainFrac(critical) = %v, want 0.99", af)
	}
	if s.Violating(crit * 1.0001) {
		t.Fatalf("just above critical should attain")
	}
	if !s.Violating(crit * 0.9999) {
		t.Fatalf("just below critical should violate")
	}
}

func TestHeadroomClamped(t *testing.T) {
	s := spec()
	if got := s.Headroom(100 * s.CriticalIPS()); got != 1 {
		t.Fatalf("Headroom with huge margin = %v, want 1 (clamped)", got)
	}
}

func TestAggregateScores(t *testing.T) {
	s := spec()
	crit := s.CriticalIPS()
	specs := []*Spec{nil, s, nil, s} // batch slots interleaved
	ips := []float64{1e9, 2 * crit, 1e9, 2 * crit}

	if !HasLC(specs) || HasLC([]*Spec{nil, nil}) {
		t.Fatalf("HasLC wrong")
	}
	if AnyViolating(specs, ips) {
		t.Fatalf("no job below critical, but AnyViolating true")
	}
	ips[3] = 0.5 * crit
	if !AnyViolating(specs, ips) {
		t.Fatalf("job below critical not flagged")
	}

	// Aggregates average over LC slots only; batch slots are ignored.
	want := (s.AttainFrac(ips[1]) + s.AttainFrac(ips[3])) / 2
	if got := AttainmentScore(specs, ips); math.Abs(got-want) > 1e-15 {
		t.Fatalf("AttainmentScore = %v, want %v", got, want)
	}
	wantH := (s.Headroom(ips[1]) + s.Headroom(ips[3])) / 2
	if got := HeadroomScore(specs, ips); math.Abs(got-wantH) > 1e-15 {
		t.Fatalf("HeadroomScore = %v, want %v", got, wantH)
	}

	// No LC jobs: both scores are the neutral 1.
	batch := []*Spec{nil, nil}
	if HeadroomScore(batch, ips[:2]) != 1 || AttainmentScore(batch, ips[:2]) != 1 {
		t.Fatalf("scores over batch-only specs should be 1")
	}
}

func TestDetectorHysteresis(t *testing.T) {
	d := NewDetector(3, 4)

	// Fewer than onset violating ticks: no switch.
	for i := 0; i < 2; i++ {
		if d.Observe(true) {
			t.Fatalf("switched after %d violating ticks, onset is 3", i+1)
		}
	}
	// An attaining tick resets the onset streak.
	if d.Observe(false) || d.Violating() {
		t.Fatalf("attaining tick should reset streak without switching")
	}
	for i := 0; i < 2; i++ {
		if d.Observe(true) {
			t.Fatalf("streak did not reset")
		}
	}
	if !d.Observe(true) {
		t.Fatalf("3rd consecutive violating tick should switch on")
	}
	if !d.Violating() || d.Onsets() != 1 {
		t.Fatalf("expected violating state with 1 onset")
	}

	// Violating state holds through short attaining runs.
	for i := 0; i < 3; i++ {
		if d.Observe(false) {
			t.Fatalf("cleared after %d attaining ticks, clear is 4", i+1)
		}
	}
	if d.Observe(true) {
		t.Fatalf("violating tick while violating should not switch")
	}
	if d.MidStreak() { // the violating tick above cleared the ok streak
		t.Fatalf("no streak expected")
	}
	for i := 0; i < 3; i++ {
		if d.Observe(false) {
			t.Fatalf("cleared early at %d", i+1)
		}
		if !d.MidStreak() {
			t.Fatalf("ok streak should be mid-flight")
		}
	}
	if !d.Observe(false) {
		t.Fatalf("4th consecutive attaining tick should clear")
	}
	if d.Violating() || d.Onsets() != 1 {
		t.Fatalf("expected attaining state after 1 onset")
	}
	if d.MidStreak() {
		t.Fatalf("streaks should be empty after a flip")
	}
}

func TestDetectorDefaultsAndReset(t *testing.T) {
	d := NewDetector(0, 0)
	for i := 0; i < DefaultOnsetTicks-1; i++ {
		if d.Observe(true) {
			t.Fatalf("default onset fired early")
		}
	}
	if !d.Observe(true) {
		t.Fatalf("default onset did not fire at %d ticks", DefaultOnsetTicks)
	}
	for i := 0; i < DefaultClearTicks-1; i++ {
		if d.Observe(false) {
			t.Fatalf("default clear fired early")
		}
	}
	if !d.Observe(false) {
		t.Fatalf("default clear did not fire at %d ticks", DefaultClearTicks)
	}
	if d.Violating() || d.MidStreak() {
		t.Fatalf("the clear should return to a clean attaining state")
	}
	if d.Onsets() != 1 {
		t.Fatalf("the clear should preserve the onset count")
	}
}
