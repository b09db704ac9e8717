package rdt

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// testProfiles cycles the PARSEC profiles up to n jobs.
func testProfiles(t *testing.T, n int) []*sim.Profile {
	t.Helper()
	base := workloads.PARSEC()
	out := make([]*sim.Profile, n)
	for i := range out {
		out[i] = base[i%len(base)]
	}
	return out
}

// writeNumCLOSIDs plants the resctrl capability file that advertises the
// class-of-service budget (total CLOS including the root group).
func writeNumCLOSIDs(t *testing.T, root string, n string) {
	t.Helper()
	dir := filepath.Join(root, "info", "L3")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "num_closids"), []byte(n), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWriterMaxCLOS(t *testing.T) {
	w := ResctrlWriter{Root: t.TempDir()}
	if n, err := w.MaxCLOS(); err != nil || n != 0 {
		t.Fatalf("scratch tree MaxCLOS = (%d, %v), want unlimited (0, nil)", n, err)
	}
	writeNumCLOSIDs(t, w.Root, "16\n")
	if n, err := w.MaxCLOS(); err != nil || n != 15 {
		t.Fatalf("MaxCLOS = (%d, %v), want 15 (16 minus the root group)", n, err)
	}
	writeNumCLOSIDs(t, w.Root, "garbage")
	if _, err := w.MaxCLOS(); err == nil {
		t.Fatal("malformed num_closids accepted")
	}
}

// traceSampler replays one constant row of IPS for n jobs.
func traceSampler(t *testing.T, n int) *TraceSampler {
	t.Helper()
	row := make([]float64, n)
	for i := range row {
		row[i] = 1e9
	}
	s, err := NewTraceSampler(row, [][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// groupDirs lists the control-group directories under root.
func groupDirs(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.Name() != "info" {
			dirs = append(dirs, e.Name())
		}
	}
	return dirs
}

// TestResctrlPlatformCLOSPreflight: a job set that needs more control
// groups than the tree's class-of-service budget is refused with a typed
// *CLOSLimitError before a single group directory is written — at
// construction and when a grouping is removed — and fits once clustered.
func TestResctrlPlatformCLOSPreflight(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	w := ResctrlWriter{Root: t.TempDir()}
	writeNumCLOSIDs(t, w.Root, "4\n") // 3 usable groups < 5 jobs
	_, err := NewResctrlPlatform(sim.DefaultMachine(), names, w, traceSampler(t, 5), nil)
	var lim *CLOSLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("NewResctrlPlatform = %v, want *CLOSLimitError", err)
	}
	if lim.Need != 5 || lim.Have != 3 {
		t.Fatalf("CLOSLimitError = %+v, want Need=5 Have=3", lim)
	}
	// Nothing may have been written: a partial tree would pin CLOS.
	if dirs := groupDirs(t, w.Root); len(dirs) > 0 {
		t.Fatalf("refused construction left %v behind", dirs)
	}
	// Clustered to 3 groups the same 5 jobs fit.
	p, err := NewResctrlPlatform(sim.DefaultMachine(), names, w, traceSampler(t, 5), resource.RoundRobinGrouping(5, 3))
	if err != nil {
		t.Fatalf("clustered platform refused: %v", err)
	}
	if dirs := groupDirs(t, w.Root); len(dirs) != 3 {
		t.Fatalf("clustered platform wrote %v, want 3 groups", dirs)
	}
	// Ungrouping would need 5: refused, rolled back, nothing written.
	if err := p.SetGrouping(nil); !errors.As(err, &lim) {
		t.Fatalf("SetGrouping(nil) = %v, want *CLOSLimitError", err)
	}
	if g := p.Grouping(); g == nil || g.Clusters != 3 {
		t.Fatalf("failed SetGrouping did not roll back: %v", p.Grouping())
	}
	if dirs := groupDirs(t, w.Root); len(dirs) != 3 {
		t.Fatalf("refused SetGrouping left %v", dirs)
	}
}

// TestResctrlPlatformReadsCLOSBudgetOnce: the budget is read from
// info/L3/num_closids at construction and only then. The writer used to
// re-read it on every apply, so a capability file rewritten under a
// running platform failed every later decision.
func TestResctrlPlatformReadsCLOSBudgetOnce(t *testing.T) {
	w := ResctrlWriter{Root: t.TempDir()}
	writeNumCLOSIDs(t, w.Root, "16\n")
	p, err := NewResctrlPlatform(sim.DefaultMachine(), []string{"a", "b", "c"}, w, traceSampler(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	writeNumCLOSIDs(t, w.Root, "garbage")
	moved, ok := p.Space().Move(p.Current(), 0, 0, 1)
	if !ok {
		t.Fatal("move failed")
	}
	if err := p.Apply(moved); err != nil {
		t.Fatalf("Apply after num_closids changed: %v", err)
	}
	if err := p.Resync(); err != nil {
		t.Fatalf("Resync after num_closids changed: %v", err)
	}
	if p.MaxCLOS() != 15 {
		t.Errorf("MaxCLOS = %d, want the 15 read at construction", p.MaxCLOS())
	}
	got, err := p.ReadGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(p.Space(), moved)
	if err != nil {
		t.Fatal(err)
	}
	if got.CATMask != want.Jobs[0].CATMask || got.MBAPercent != want.Jobs[0].MBAPercent {
		t.Errorf("group 0 = %+v, want the applied %+v", got, want.Jobs[0])
	}
}

// TestWriterPrunesStaleGroups pins the churn-hygiene satellite: shrinking
// the plan (fewer jobs, or a coarser clustering) must remove the
// higher-numbered control-group directories — a stale group would pin a
// CLOS and its cache ways forever on real hardware — while foreign
// directories under the root are left alone.
func TestWriterPrunesStaleGroups(t *testing.T) {
	w := ResctrlWriter{Root: t.TempDir()}
	// Foreign entries a live resctrl mount also has.
	if err := os.MkdirAll(filepath.Join(w.Root, "mon_groups"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(w.Root, "other-tenant"), 0o755); err != nil {
		t.Fatal(err)
	}
	apply := func(jobs int) {
		t.Helper()
		space, err := sim.DefaultMachine().Space(jobs)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Compile(space, space.EqualSplit())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Apply(plan); err != nil {
			t.Fatal(err)
		}
	}
	dirSet := func() map[string]bool {
		t.Helper()
		entries, err := os.ReadDir(w.Root)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, e := range entries {
			out[e.Name()] = true
		}
		return out
	}
	apply(3)
	want := map[string]bool{"mon_groups": true, "other-tenant": true,
		"satori-job0": true, "satori-job1": true, "satori-job2": true}
	if got := dirSet(); len(got) != len(want) {
		t.Fatalf("after 3-job apply: %v, want %v", got, want)
	}
	apply(2)
	got := dirSet()
	if got["satori-job2"] {
		t.Fatal("stale satori-job2 survived the 2-job apply")
	}
	for name := range map[string]bool{"mon_groups": true, "other-tenant": true, "satori-job0": true, "satori-job1": true} {
		if !got[name] {
			t.Fatalf("prune removed %s", name)
		}
	}
	if len(got) != 4 {
		t.Fatalf("after 2-job apply: %v", got)
	}
}

func TestCompileGrouped(t *testing.T) {
	space, err := sim.DefaultMachine().Space(6)
	if err != nil {
		t.Fatal(err)
	}
	g := resource.RoundRobinGrouping(6, 2)
	cfg := space.EqualSplit()
	plan, err := CompileGrouped(space, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 2 {
		t.Fatalf("grouped plan has %d entries, want one per cluster (2)", len(plan.Jobs))
	}
	// The two cluster groups jointly cover the whole machine exactly.
	cores := 0
	var union uint64
	for _, ja := range plan.Jobs {
		cores += len(ja.CPUSet)
		union |= ja.CATMask
	}
	m := sim.DefaultMachine()
	if cores != m.Cores {
		t.Errorf("cluster CPU sets cover %d cores, want %d", cores, m.Cores)
	}
	if union != (1<<m.LLCWays)-1 {
		t.Errorf("cluster CAT masks union %#x, want full %d ways", union, m.LLCWays)
	}
	// nil grouping degrades to the per-job compile.
	plain, err := CompileGrouped(space, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Jobs) != 6 {
		t.Fatalf("nil grouping compiled %d entries, want 6", len(plain.Jobs))
	}
	// A grouping for the wrong job count is rejected.
	if _, err := CompileGrouped(space, cfg, resource.RoundRobinGrouping(4, 2)); err == nil {
		t.Fatal("mismatched grouping accepted")
	}
}

func TestSimPlatformGroupingAndCLOS(t *testing.T) {
	profiles := testProfiles(t, 5)
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxCLOS() != 0 {
		t.Fatalf("fresh SimPlatform MaxCLOS = %d, want 0 (unlimited)", p.MaxCLOS())
	}
	// 5 jobs into a 3-CLOS budget: rejected per-job, accepted clustered.
	p.maxCLOS = 3
	if err := p.Resync(); err == nil {
		t.Fatal("a 3-CLOS budget accepted 5 per-job control groups")
	}
	if err := p.SetGrouping(resource.RoundRobinGrouping(5, 3)); err != nil {
		t.Fatalf("a 3-CLOS budget rejected a 3-cluster grouping: %v", err)
	}
	if got := len(p.Plan().Jobs); got != 3 {
		t.Fatalf("grouped plan has %d entries, want 3", got)
	}
	// Ungrouping under the budget must fail and roll back.
	if err := p.SetGrouping(nil); err == nil {
		t.Fatal("SetGrouping(nil) accepted with 5 jobs over a 3-CLOS budget")
	}
	if g := p.Grouping(); g == nil || g.Clusters != 3 {
		t.Fatalf("failed SetGrouping did not roll back: %v", p.Grouping())
	}
	// Applies keep compiling per cluster.
	cfg := p.Space().EqualSplit()
	moved, ok := p.Space().Move(cfg, 0, 0, 1)
	if !ok {
		t.Fatal("move failed")
	}
	if err := p.Apply(moved); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Plan().Jobs); got != 3 {
		t.Fatalf("post-apply plan has %d entries, want 3", got)
	}
}

func TestSimPlatformChurnKeepsGroupingWithinBudget(t *testing.T) {
	profiles := testProfiles(t, 5)
	simulator, err := sim.New(sim.DefaultMachine(), profiles, sim.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSimPlatform(simulator)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetGrouping(resource.RoundRobinGrouping(5, 3)); err != nil {
		t.Fatal(err)
	}
	p.maxCLOS = 3
	// Churn in a 6th job: the platform must re-churn the grouping (same
	// cluster count, new job spanned) rather than fall back to per-job
	// groups that would blow the CLOS budget mid-churn.
	if err := p.AddJob(profiles[0]); err != nil {
		t.Fatal(err)
	}
	g := p.Grouping()
	if g == nil || g.Jobs() != 6 || g.Clusters != 3 {
		t.Fatalf("post-churn grouping = %v, want 6 jobs over 3 clusters", g)
	}
	if err := p.RemoveJob(0); err != nil {
		t.Fatal(err)
	}
	g = p.Grouping()
	if g == nil || g.Jobs() != 5 || g.Clusters != 3 {
		t.Fatalf("post-removal grouping = %v, want 5 jobs over 3 clusters", g)
	}
}
