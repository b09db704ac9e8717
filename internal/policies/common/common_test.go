package common

import (
	"testing"

	"satori/internal/policy"
)

func TestEpochAccumulation(t *testing.T) {
	e := NewEpoch(3)
	if _, done := e.Add(1); done {
		t.Fatal("epoch completed early")
	}
	if _, done := e.Add(2); done {
		t.Fatal("epoch completed early")
	}
	mean, done := e.Add(3)
	if !done || mean != 2 {
		t.Fatalf("epoch end: mean=%g done=%v", mean, done)
	}
	// Auto-reset: the next epoch starts clean.
	e.Add(10)
	e.Add(10)
	mean, done = e.Add(10)
	if !done || mean != 10 {
		t.Fatalf("second epoch: mean=%g done=%v", mean, done)
	}
}

func TestEpochReset(t *testing.T) {
	e := NewEpoch(2)
	e.Add(100)
	e.Reset()
	if _, done := e.Add(1); done {
		t.Fatal("Reset did not clear partial state")
	}
	if mean, done := e.Add(3); !done || mean != 2 {
		t.Fatalf("post-reset epoch wrong: %g %v", mean, done)
	}
}

func TestEpochMinimumLength(t *testing.T) {
	e := NewEpoch(0)
	if e.ticks != 1 {
		t.Errorf("ticks = %d, want 1", e.ticks)
	}
	if mean, done := e.Add(7); !done || mean != 7 {
		t.Error("length-1 epoch should complete immediately")
	}
}

func TestArgMinMax(t *testing.T) {
	min, max := ArgMinMax([]float64{3, 1, 4, 1.5, 9})
	if min != 1 || max != 4 {
		t.Errorf("ArgMinMax = (%d, %d), want (1, 4)", min, max)
	}
	min, max = ArgMinMax([]float64{5})
	if min != 0 || max != 0 {
		t.Errorf("single element: (%d, %d)", min, max)
	}
}

func TestArgMinMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty slice did not panic")
		}
	}()
	ArgMinMax(nil)
}

func TestBalancedObjective(t *testing.T) {
	obs := policy.Observation{Throughput: 0.4, Fairness: 0.8}
	if got := BalancedObjective(obs); got < 0.6-1e-12 || got > 0.6+1e-12 {
		t.Errorf("BalancedObjective = %g, want 0.6", got)
	}
}
