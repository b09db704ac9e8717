package harness

import (
	"strings"
	"testing"
)

// smokeOpt shrinks experiments to seconds-scale runs.
var smokeOpt = ExpOptions{Ticks: 80, Seed: 5, MixLimit: 2}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	// Every figure in the paper's evaluation plus the textual results
	// and our ablations: 16 figures + 15 extras (incl. the SLO study and
	// the jobs ≫ classes clustering ablation).
	if len(exps) != 31 {
		t.Fatalf("registry has %d experiments", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"fig1", "fig7", "fig14", "fig19", "scalability", "overhead", "space"} {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := FindExperiment("fig7"); !ok {
		t.Error("FindExperiment failed")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("FindExperiment found a ghost")
	}
}

// TestEveryExperimentRunsAtSmokeScale is the integration test for the
// whole reproduction surface: every driver must complete and render.
func TestEveryExperimentRunsAtSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke sweep skipped in -short mode")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(smokeOpt)
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if rep.ID != e.ID {
				t.Errorf("report ID %q, want %q", rep.ID, e.ID)
			}
			out := rep.String()
			if !strings.Contains(out, e.ID) {
				t.Error("rendering missing ID")
			}
			if len(rep.Tables) == 0 && len(rep.Notes) == 0 {
				t.Error("empty report")
			}
		})
	}
}

func TestExpOptionsFill(t *testing.T) {
	o := ExpOptions{}.fill()
	if o.Ticks != 600 || o.Seed != 42 {
		t.Errorf("defaults = %+v", o)
	}
	if got := (ExpOptions{MixLimit: 3}).limitMixes(10); got != 3 {
		t.Errorf("limitMixes = %d", got)
	}
	if got := (ExpOptions{}).limitMixes(10); got != 10 {
		t.Errorf("unlimited limitMixes = %d", got)
	}
	if got := (ExpOptions{MixLimit: 30}).limitMixes(10); got != 10 {
		t.Errorf("over-limit limitMixes = %d", got)
	}
}

func TestShortNames(t *testing.T) {
	got := shortNames([]string{"blackscholes", "vips"})
	if got[0] != "black" || got[1] != "vips" {
		t.Errorf("shortNames = %v", got)
	}
}
