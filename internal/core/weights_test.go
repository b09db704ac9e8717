package core

import (
	"math"
	"testing"
	"testing/quick"

	"satori/internal/policy"
	"satori/internal/stats"
)

func TestStaticWeights(t *testing.T) {
	static := func(wT float64) *Scheduler {
		s := NewScheduler(SchedulerOptions{Mode: WeightsStatic})
		s.pin(wT)
		return s
	}
	s := static(0.5)
	for i := 0; i < 50; i++ {
		w := s.Step(0.5, 0.5)
		if w.T != 0.5 || w.F != 0.5 {
			t.Fatalf("static weights drifted: %+v", w)
		}
	}
	// Single-goal variants honor explicit 0 and 1.
	s = static(1)
	if w := s.Step(0.5, 0.5); w.T != 1 || w.F != 0 {
		t.Errorf("throughput-only weights: %+v", w)
	}
	s = static(0)
	if w := s.Step(0.5, 0.5); w.T != 0 || w.F != 1 {
		t.Errorf("fairness-only weights: %+v", w)
	}
	// Unset StaticWT under WeightsStatic defaults to balanced.
	s = NewScheduler(SchedulerOptions{Mode: WeightsStatic})
	if w := s.Step(0.2, 0.9); w.T != 0.5 {
		t.Errorf("default static weight: %+v", w)
	}
}

func TestWeightsSumToOne(t *testing.T) {
	rng := stats.NewRNG(9)
	s := NewScheduler(SchedulerOptions{})
	for i := 0; i < 1000; i++ {
		w := s.Step(rng.Float64(), rng.Float64())
		if math.Abs(w.T+w.F-1) > 1e-12 {
			t.Fatalf("tick %d: W_T+W_F = %g", i, w.T+w.F)
		}
		if math.Abs(w.TE+w.FE-1) > 1e-12 || math.Abs(w.TP+w.FP-1) > 1e-12 {
			t.Fatalf("tick %d: components don't pair: %+v", i, w)
		}
	}
}

func TestWeightBounds(t *testing.T) {
	// Sec. III-C: weights bounded in [0.25, 0.75] to keep the BO
	// process controlled, under any observation sequence.
	rng := stats.NewRNG(10)
	s := NewScheduler(SchedulerOptions{PrioritizationTicks: 5, EqualizationTicks: 50})
	for i := 0; i < 5000; i++ {
		// Adversarial observations: alternating extremes.
		tp := rng.Float64()
		f := 1 - tp
		if i%7 == 0 {
			tp, f = 0.001, 0.999
		}
		w := s.Step(tp, f)
		if w.T < 0.25-1e-12 || w.T > 0.75+1e-12 {
			t.Fatalf("tick %d: W_T = %g out of [0.25, 0.75]", i, w.T)
		}
	}
}

func TestEqualizationAveragesToHalf(t *testing.T) {
	// The defining property of Sec. III-C: over every equalization
	// period, the average W_T must be ~0.5 (long-term equal priority).
	rng := stats.NewRNG(11)
	s := NewScheduler(SchedulerOptions{PrioritizationTicks: 10, EqualizationTicks: 100})
	sum := 0.0
	n := 0
	periods := 0
	for i := 0; i < 1000; i++ {
		// Observations with drifting trends so prioritization keeps
		// firing.
		tp := 0.5 + 0.3*math.Sin(float64(i)/13) + 0.05*rng.NormFloat64()
		f := 0.5 + 0.3*math.Cos(float64(i)/7) + 0.05*rng.NormFloat64()
		w := s.Step(tp, f)
		sum += w.T
		n++
		if s.te == 0 { // advanceClock closed a period
			avg := sum / float64(n)
			if math.Abs(avg-0.5) > 0.08 {
				t.Errorf("period %d: mean W_T = %g, want ~0.5", periods, avg)
			}
			sum, n = 0, 0
			periods++
		}
	}
	if periods < 9 {
		t.Fatalf("only %d equalization periods closed", periods)
	}
}

func TestPrioritizationRespondsToImprovement(t *testing.T) {
	// If fairness improved a lot during a prioritization period while
	// throughput stalled, the NEXT period must prioritize throughput
	// (Eq. 4: W_TP = 1/4 + (1/2)·ΔF/(ΔT+ΔF)).
	s := NewScheduler(SchedulerOptions{PrioritizationTicks: 10, EqualizationTicks: 1000})
	// Period 1: fairness ramps 0.5 -> 0.9, throughput flat.
	var w Weights
	for i := 0; i <= 10; i++ {
		f := 0.5 + 0.4*float64(i)/10
		w = s.Step(0.5, f)
	}
	if w.TP <= 0.5 {
		t.Errorf("after fairness-dominant period, W_TP = %g, want > 0.5", w.TP)
	}
	if math.Abs(w.TP-0.75) > 1e-9 {
		// ΔT = 0 -> W_TP should hit the 0.75 ceiling exactly.
		t.Errorf("W_TP = %g, want 0.75 when only fairness improved", w.TP)
	}
}

func TestFavorStrongerInverts(t *testing.T) {
	dyn := NewScheduler(SchedulerOptions{PrioritizationTicks: 10, EqualizationTicks: 1000})
	str := NewScheduler(SchedulerOptions{Mode: WeightsFavorStronger, PrioritizationTicks: 10, EqualizationTicks: 1000})
	var wd, ws Weights
	for i := 0; i <= 10; i++ {
		f := 0.5 + 0.4*float64(i)/10
		wd = dyn.Step(0.5, f)
		ws = str.Step(0.5, f)
	}
	// Dynamic gives throughput the next opportunity; favor-stronger
	// keeps riding fairness.
	if !(wd.TP > 0.5 && ws.TP < 0.5) {
		t.Errorf("mode split wrong: dynamic TP=%g, favor-stronger TP=%g", wd.TP, ws.TP)
	}
}

func TestNoImprovementMeansBalancedPriorities(t *testing.T) {
	s := NewScheduler(SchedulerOptions{PrioritizationTicks: 5, EqualizationTicks: 1000})
	var w Weights
	for i := 0; i < 12; i++ {
		w = s.Step(0.5, 0.5) // flat: ΔT = ΔF = 0
	}
	if w.TP != 0.5 || w.FP != 0.5 {
		t.Errorf("flat observations should keep priorities balanced: %+v", w)
	}
}

func TestEqualizationDominatesLate(t *testing.T) {
	// Engineer a period where throughput was over-weighted early; near
	// the period end, the equalization component must pull W_T below
	// 0.5 and the blend factor must approach 1.
	s := NewScheduler(SchedulerOptions{PrioritizationTicks: 10, EqualizationTicks: 100})
	var w Weights
	for i := 0; i < 99; i++ {
		// Fairness improves steadily across every prioritization
		// period while throughput stalls, so throughput keeps getting
		// prioritized (over-weighted) — Eq. 4.
		f := 0.3 + 0.5*float64(i)/99
		w = s.Step(0.4, f)
	}
	if w.EqFrac < 0.9 {
		t.Errorf("EqFrac near period end = %g", w.EqFrac)
	}
	if w.TE >= 0.5 {
		t.Errorf("equalization component should compensate over-weighted throughput: TE = %g", w.TE)
	}
	if w.T >= w.TP {
		t.Errorf("late in the period the blend (%g) must sit below the prioritization weight (%g)", w.T, w.TP)
	}
}

func TestEqualizationBoundarySignal(t *testing.T) {
	s := NewScheduler(SchedulerOptions{PrioritizationTicks: 5, EqualizationTicks: 20})
	boundaries := 0
	for i := 1; i <= 100; i++ {
		s.Step(0.5, 0.5)
		if s.te == 0 { // advanceClock closed a period
			boundaries++
			if i%20 != 0 {
				t.Errorf("boundary at tick %d, want multiples of 20", i)
			}
		}
	}
	if boundaries != 5 {
		t.Errorf("%d boundaries in 100 ticks, want 5", boundaries)
	}
}

func TestPctImprove(t *testing.T) {
	if got := pctImprove(0.5, 0.6); math.Abs(got-20) > 1e-9 {
		t.Errorf("pctImprove(0.5, 0.6) = %g, want 20", got)
	}
	if got := pctImprove(0.5, 0.4); got != 0 {
		t.Errorf("regressions clamp to 0, got %g", got)
	}
	if got := pctImprove(0, 1); got != 0 {
		t.Errorf("zero base clamps to 0, got %g", got)
	}
}

func TestModeStrings(t *testing.T) {
	if WeightsDynamic.String() != "dynamic" ||
		WeightsStatic.String() != "static" ||
		WeightsFavorStronger.String() != "favor-stronger" ||
		WeightMode(99).String() != "unknown" {
		t.Error("mode names wrong")
	}
}

// TestLastWeights: an engine reports the weights its last Decide built
// the objective from, the ones a scheduler of its options steps to on the
// same observations.
func TestLastWeights(t *testing.T) {
	env := newSyntheticEnv(0.01)
	eng, err := New(env.space, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(SchedulerOptions{})
	current := env.space.EqualSplit()
	for tick := 1; tick <= 30; tick++ {
		tp, fair := env.eval(current)
		current = eng.Decide(policy.Observation{Tick: tick, Throughput: tp, Fairness: fair}, current)
		if w := s.Step(tp, fair); eng.LastWeights() != w {
			t.Fatalf("tick %d: LastWeights %+v, the scheduler's %+v", tick, eng.LastWeights(), w)
		}
	}
}

func TestWeightBoundsPropertyQuick(t *testing.T) {
	// For ANY bounds configuration and ANY observation stream, final
	// weights stay inside the configured bounds and pair to 1.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		floor := 0.05 + 0.3*rng.Float64()
		ceil := 0.55 + 0.4*rng.Float64()
		s := NewScheduler(SchedulerOptions{
			PrioritizationTicks: 1 + rng.Intn(20),
			EqualizationTicks:   10 + rng.Intn(100),
			WeightFloor:         floor,
			WeightCeil:          ceil,
		})
		for i := 0; i < 300; i++ {
			w := s.Step(rng.Float64(), rng.Float64())
			if w.T < floor-1e-9 || w.T > ceil+1e-9 {
				return false
			}
			if d := w.T + w.F - 1; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExplicitZeroFloorHonored is the regression test for the
// silently-rewritten bounds ablation: NewScheduler used to turn
// WeightFloor: 0 back into the 0.25 default because the unset sentinel was
// `<= 0`, making the "bounded vs unbounded" ablation (DESIGN.md §6)
// compare 0.25/0.75 against 0.25/0.75. With WeightFloorSet the explicit
// zero must survive, and weights must actually be able to leave the
// default band.
func TestExplicitZeroFloorHonored(t *testing.T) {
	s := NewScheduler(SchedulerOptions{
		PrioritizationTicks: 2,
		EqualizationTicks:   1000, // keep equalization's pull negligible
		WeightFloor:         0, WeightFloorSet: true,
		WeightCeil: 1,
	})
	if s.floor != 0 || s.ceil != 1 {
		t.Fatalf("bounds = [%g, %g], want the explicit [0, 1]", s.floor, s.ceil)
	}
	// Throughput improves hugely, fairness not at all: with span = 1 the
	// prioritization weight for throughput goes to the floor (the weaker
	// goal gets the opportunity), far below the default 0.25 bound.
	escaped := false
	for i := 0; i < 40; i++ {
		w := s.Step(1+float64(i), 1)
		if w.T < DefaultWeightFloor-0.05 {
			escaped = true
		}
		if w.T < 0 || w.T > 1 {
			t.Fatalf("tick %d: weight %g outside [0, 1]", i, w.T)
		}
	}
	if !escaped {
		t.Error("weights never left the default [0.25, 0.75] band despite unbounded configuration")
	}
}

// TestUnsetBoundsKeepDefaults pins the pre-existing behavior for callers
// that leave the options zeroed.
func TestUnsetBoundsKeepDefaults(t *testing.T) {
	s := NewScheduler(SchedulerOptions{})
	if s.floor != DefaultWeightFloor || s.ceil != DefaultWeightCeil {
		t.Fatalf("bounds = [%g, %g], want defaults [%g, %g]",
			s.floor, s.ceil, DefaultWeightFloor, DefaultWeightCeil)
	}
	// Nonsensical explicit bounds (ceil below floor) also fall back.
	s = NewScheduler(SchedulerOptions{WeightFloor: 0.9, WeightCeil: 0.1})
	if s.floor != DefaultWeightFloor || s.ceil != DefaultWeightCeil {
		t.Fatalf("inverted bounds = [%g, %g], want defaults", s.floor, s.ceil)
	}
}
