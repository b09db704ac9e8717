package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The committed goldens under testdata/golden were captured BEFORE the
// per-tick loop moved into internal/control (with cmd/experiments -csv at
// the flag values below). These tests pin the refactor's core promise:
// with the sim backend, suite results are byte-identical — same RNG draw
// order, same metric math, same equalization schedule, down to the
// formatted digit. A diff here means the control loop changed observable
// behavior, not just structure.

// golden runs experiment id at the given scale on one worker and on four,
// and holds table 0 of each report to the capture: any worker count must
// render the same bytes.
func golden(t *testing.T, id string, opt ExpOptions, goldenFile string) {
	t.Helper()
	e, ok := FindExperiment(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		rep, err := e.Run(opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			t.Fatalf("%s rendered no table", id)
		}
		var got strings.Builder
		if err := rep.Tables[0].WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s at %d workers diverged from the pre-refactor capture:\ngot:\n%s\nwant:\n%s",
				goldenFile, workers, got.String(), want)
		}
	}
}

// Fig. 7 smoke scale: -run fig7 -ticks 60 -mixes 2 -seed 42.
func TestGoldenFig7Smoke(t *testing.T) {
	golden(t, "fig7", ExpOptions{Ticks: 60, Seed: 42, MixLimit: 2}, "fig7_smoke.csv")
}

// SLO recovery at 200 ticks: -run slo -ticks 200 -seed 42. This golden
// pins the whole SLO subsystem end to end — the latency model's derived
// quantiles, the hysteretic detector's onset/clear schedule, and the
// violation-driven goal switch — any of which would shift the violated-
// tick counts or recovery times captured here.
func TestGoldenSLOSmoke(t *testing.T) {
	golden(t, "slo", ExpOptions{Ticks: 200, Seed: 42}, "slo_200.csv")
}

// Jobs ≫ classes ablation at 120 ticks: -run cluster -ticks 120 -seed 42.
// This golden pins the whole cluster indirection end to end — the
// round-robin bootstrap grouping, the classifier's fingerprints and
// hysteretic migrations, the reduced-space search, and the expansion back
// to per-job partitions — plus (via the per-job satori row) that plain
// SATORI's draws are untouched by the clustering machinery existing.
func TestGoldenCluster(t *testing.T) {
	golden(t, "cluster", ExpOptions{Ticks: 120, Seed: 42}, "cluster_120.csv")
}

// Mix change at 200 ticks: -run mix-change -ticks 200 -seed 42. Ticks=200
// puts the mid-run churn exactly on a 100-tick equalization boundary, so
// this golden also pins the "churn preempts the periodic refresh"
// scheduling the loop must reproduce.
func TestGoldenMixChange(t *testing.T) {
	golden(t, "mix-change", ExpOptions{Ticks: 200, Seed: 42}, "mixchange_200.csv")
}
