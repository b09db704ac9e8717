package main

import (
	"context"
	"testing"
	"time"
)

// TestTickZeroFreeRuns: -tick 0 is documented as free-run. It used to
// reach server.Options as a zero TickEvery, which selects the 100 ms
// default, so 50 ticks took 5 s of wall clock.
func TestTickZeroFreeRuns(t *testing.T) {
	srv, err := buildServer("localhost:0", "", "parsec", 0, "satori", 0, 1, 0, 50, "", false, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ticks := srv.Loop().Summary().Ticks; ticks != 50 {
		t.Fatalf("ran %d ticks, want 50", ticks)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("50 free-run ticks took %v; at the 100 ms cadence they take 5 s", took)
	}
}
