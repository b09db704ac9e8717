package satori_test

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"satori"
	"satori/internal/control"
	"satori/internal/rdt"
	"satori/internal/stack"
)

// writeTrace records an IPS trace file for -trace and returns its path.
func writeTrace(t *testing.T, isolated []float64, rows [][]float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capture.ips")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rdt.WriteIPSTrace(f, isolated, rows); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResctrlSessionEndToEnd drives a full SATORI session over the
// resctrl backend against a scratch root: the complete Algorithm-1 loop
// (sample → score → decide → apply → periodic baseline refresh) runs
// hermetically, and after every tick the control-group files on disk
// must equal the compiled form of exactly the configuration the status
// reports — the resctrl tree is the partition, tick for tick.
func TestResctrlSessionEndToEnd(t *testing.T) {
	names := []string{"blackscholes", "canneal", "streamcluster"}
	isolated := []float64{2.5e9, 1.8e9, 2.1e9}
	// A short synthetic IPS recording; it replays in a loop, so 120
	// ticks cross the 100-tick equalization boundary with a 7-row trace.
	rows := [][]float64{
		{1.2e9, 0.9e9, 1.0e9},
		{1.3e9, 0.8e9, 1.1e9},
		{1.1e9, 1.0e9, 0.9e9},
		{1.4e9, 0.7e9, 1.2e9},
		{1.0e9, 1.1e9, 0.8e9},
		{1.2e9, 0.9e9, 1.1e9},
		{1.3e9, 1.0e9, 1.0e9},
	}
	loop, err := stack.Spec{Workloads: strings.Join(names, ","), Policy: "satori", Seed: 11,
		Backend: "resctrl", ResctrlRoot: t.TempDir(), Trace: writeTrace(t, isolated, rows)}.Build(120)
	if err != nil {
		t.Fatal(err)
	}
	platform, ok := rdt.As[*rdt.ResctrlPlatform](loop.Platform())
	if !ok {
		t.Fatalf("-backend resctrl built a %T", loop.Platform())
	}
	if got := platform.JobNames(); len(got) != 3 || got[1] != "canneal" {
		t.Fatalf("JobNames = %v", got)
	}

	changed := 0
	var prev satori.Config
	var sawReset bool
	for tick := 1; tick <= 120; tick++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if st.Held != 0 {
			t.Fatalf("tick %d: held (%s): %v", tick, st.Held, st.Err)
		}
		if st.ResetErr != nil {
			t.Fatalf("tick %d: baseline refresh failed: %v", tick, st.ResetErr)
		}
		if tick == 101 && st.BaselineReset {
			sawReset = true
		}
		plan, err := rdt.Compile(platform.Space(), st.Config)
		if err != nil {
			t.Fatalf("tick %d: status config does not compile: %v", tick, err)
		}
		for j := range names {
			got, err := platform.ReadGroup(j)
			if err != nil {
				t.Fatalf("tick %d job %d: %v", tick, j, err)
			}
			want := plan.Jobs[j]
			if got.CATMask != want.CATMask || got.MBAPercent != want.MBAPercent {
				t.Fatalf("tick %d job %d: resctrl tree has mask %#x MB %d%%, status config compiles to mask %#x MB %d%%",
					tick, j, got.CATMask, got.MBAPercent, want.CATMask, want.MBAPercent)
			}
			if rdt.FormatCPUList(got.CPUSet) != rdt.FormatCPUList(want.CPUSet) {
				t.Fatalf("tick %d job %d: cpus_list %q, want %q",
					tick, j, rdt.FormatCPUList(got.CPUSet), rdt.FormatCPUList(want.CPUSet))
			}
		}
		if tick > 1 && !st.Config.Equal(prev) {
			changed++
		}
		prev = st.Config.Clone()
	}
	if changed == 0 {
		t.Error("the engine never moved the partition in 120 ticks")
	}
	if !sawReset {
		t.Error("no baseline refresh observed at the 100-tick equalization boundary")
	}
	sum := loop.Summary()
	if sum.Ticks != 120 || sum.RejectedApplies != 0 {
		t.Errorf("summary = %+v, want 120 ticks and no rejections", sum)
	}

	// The backend's job set is fixed: churn must be refused with the
	// typed capability error, and the loop must keep running.
	w, err := satori.WorkloadByName("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.AddJob(w); !errors.Is(err, control.ErrChurnUnsupported) {
		t.Errorf("AddJob on a churn-incapable backend = %v, want ErrChurnUnsupported", err)
	}
	if _, err := loop.Step(); err != nil {
		t.Errorf("loop unusable after refused churn: %v", err)
	}
}

// TestResctrlClusteredEndToEnd breaks the one-job-one-CLOS wall
// hermetically: six jobs on a resctrl tree advertising only four classes
// of service (three usable groups — the root pins CLOS0). Per-job
// operation must fail preflight with the typed *rdt.CLOSLimitError;
// clustered SATORI at K=3 must run the full loop using at most three
// control-group directories, tick for tick.
func TestResctrlClusteredEndToEnd(t *testing.T) {
	names := []string{"blackscholes", "canneal", "streamcluster", "swaptions", "freqmine", "vips"}
	isolated := []float64{2.5e9, 1.8e9, 2.1e9, 2.4e9, 1.9e9, 2.0e9}
	rows := [][]float64{
		{1.2e9, 0.9e9, 1.0e9, 1.3e9, 0.8e9, 1.1e9},
		{1.3e9, 0.8e9, 1.1e9, 1.2e9, 0.9e9, 1.0e9},
		{1.1e9, 1.0e9, 0.9e9, 1.4e9, 0.7e9, 1.2e9},
		{1.4e9, 0.7e9, 1.2e9, 1.1e9, 1.0e9, 0.9e9},
		{1.0e9, 1.1e9, 0.8e9, 1.2e9, 0.9e9, 1.1e9},
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "info", "L3"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "info", "L3", "num_closids"), []byte("4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := stack.Spec{Workloads: strings.Join(names, ","), Policy: "satori", Seed: 11,
		Backend: "resctrl", ResctrlRoot: root, Trace: writeTrace(t, isolated, rows)}

	// Per-job operation: 6 jobs > 3 usable CLOS — loud typed preflight.
	_, err := spec.Build(120)
	var lim *rdt.CLOSLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("ungrouped construction = %v, want *rdt.CLOSLimitError", err)
	}
	if lim.Need != 6 || lim.Have != 3 {
		t.Fatalf("CLOSLimitError = %+v, want Need=6 Have=3", lim)
	}

	// Clustered: -cluster-k 3 turns satori into satori-clustered and boots
	// the platform on the grouping the classifier starts from.
	const k = 3
	spec.ClusterK = k
	loop, err := spec.Build(120)
	if err != nil {
		t.Fatal(err)
	}
	platform, _ := rdt.As[*rdt.ResctrlPlatform](loop.Platform())
	countGroups := func() int {
		t.Helper()
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if !e.IsDir() || !strings.HasPrefix(e.Name(), "satori-job") {
				continue
			}
			if _, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "satori-job")); err == nil {
				n++
			}
		}
		return n
	}
	for tick := 1; tick <= 120; tick++ {
		st, err := loop.Step()
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if st.Held != 0 {
			t.Fatalf("tick %d: held (%s): %v", tick, st.Held, st.Err)
		}
		if n := countGroups(); n > k {
			t.Fatalf("tick %d: %d control groups on disk, CLOS budget is %d", tick, n, k)
		}
	}
	g := platform.Grouping()
	if g == nil || g.Jobs() != len(names) || g.Clusters > k {
		t.Fatalf("final grouping = %v, want %d jobs over ≤ %d clusters", g, len(names), k)
	}
	// The on-disk groups must equal the grouped compile of the installed
	// configuration — the resctrl tree is the cluster partition.
	plan, err := rdt.CompileGrouped(platform.Space(), platform.Current(), g)
	if err != nil {
		t.Fatal(err)
	}
	for c := range plan.Jobs {
		got, err := platform.ReadGroup(c)
		if err != nil {
			t.Fatalf("cluster %d: %v", c, err)
		}
		want := plan.Jobs[c]
		if got.CATMask != want.CATMask || got.MBAPercent != want.MBAPercent {
			t.Fatalf("cluster %d: tree has mask %#x MB %d%%, config compiles to mask %#x MB %d%%",
				c, got.CATMask, got.MBAPercent, want.CATMask, want.MBAPercent)
		}
	}
}
