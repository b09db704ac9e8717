package rdt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satori/internal/sim"
	"satori/internal/stats"
)

func TestFormatCPUList(t *testing.T) {
	cases := []struct {
		in   []int
		want string
	}{
		{nil, ""},
		{[]int{0}, "0"},
		{[]int{0, 1, 2}, "0-2"},
		{[]int{0, 2, 3, 5}, "0,2-3,5"},
		{[]int{5, 3, 2, 0}, "0,2-3,5"}, // unsorted input
		{[]int{1, 1, 2}, "1-2"},        // duplicates collapse
		{[]int{7, 8, 9, 11}, "7-9,11"},
	}
	for _, c := range cases {
		if got := FormatCPUList(c.in); got != c.want {
			t.Errorf("FormatCPUList(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseCPUList(t *testing.T) {
	good := map[string][]int{
		"":        nil,
		"0":       {0},
		"0-2":     {0, 1, 2},
		"0,2-3,5": {0, 2, 3, 5},
		" 1 , 4 ": {1, 4},
	}
	for in, want := range good {
		got, err := ParseCPUList(in)
		if err != nil {
			t.Errorf("ParseCPUList(%q): %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("ParseCPUList(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("ParseCPUList(%q) = %v, want %v", in, got, want)
				break
			}
		}
	}
	for _, bad := range []string{"x", "3-1", "1-", "-2", "1,,2x"} {
		if _, err := ParseCPUList(bad); err == nil {
			t.Errorf("ParseCPUList(%q) accepted", bad)
		}
	}
	// The expansion is bounded by the kernel's CPU ceiling, ids and count
	// alike, and the refusal says so; duplicates inside it are tolerated.
	if got, err := ParseCPUList("0-8191"); err != nil || len(got) != maxCPUs {
		t.Errorf("ParseCPUList(0-8191) = %d cpus, %v; want all %d", len(got), err, maxCPUs)
	}
	if got, err := ParseCPUList("1,1,2"); err != nil || len(got) != 3 {
		t.Errorf("ParseCPUList(1,1,2) = %v, %v; duplicates must be tolerated", got, err)
	}
	for _, bad := range []string{"0-2000000000", "8192", "0-8191,0"} {
		if _, err := ParseCPUList(bad); err == nil || !strings.Contains(err.Error(), "8192") {
			t.Errorf("ParseCPUList(%q): %v, want a refusal naming the 8192-cpu bound", bad, err)
		}
	}
}

func TestCPUListRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(12)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		seen := map[int]bool{}
		var cpus []int
		for len(cpus) < n {
			c := rng.Intn(32)
			if !seen[c] {
				seen[c] = true
				cpus = append(cpus, c)
			}
		}
		back, err := ParseCPUList(FormatCPUList(cpus))
		if err != nil {
			t.Fatalf("round trip failed for %v: %v", cpus, err)
		}
		if len(back) != len(cpus) {
			t.Fatalf("round trip of %v lost cpus: %v", cpus, back)
		}
		for _, c := range back {
			if !seen[c] {
				t.Fatalf("round trip invented cpu %d from %v", c, cpus)
			}
		}
	}
}

func TestSchemataRoundTrip(t *testing.T) {
	ja := JobAllocation{Job: 2, CATMask: 0b0111000, MBAPercent: 30}
	s := FormatSchemata(ja)
	if !strings.Contains(s, "L3:0=38") || !strings.Contains(s, "MB:0=30") {
		t.Errorf("schemata rendering: %q", s)
	}
	back, err := ParseSchemata(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.CATMask != ja.CATMask || back.MBAPercent != ja.MBAPercent {
		t.Errorf("round trip = %+v, want %+v", back, ja)
	}
}

func TestParseSchemataErrors(t *testing.T) {
	for name, body := range map[string]string{
		"empty":         "",
		"no assignment": "L3:0",
		"no colon":      "L3=7",
		"bad mask":      "L3:0=zz\nMB:0=20",
		"bad percent":   "L3:0=7\nMB:0=x",
		"unknown kind":  "L2:0=7\nMB:0=20",
		"missing MB":    "L3:0=7",
	} {
		if _, err := ParseSchemata(body); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestResctrlWriterApplyAndReadBack(t *testing.T) {
	space, err := sim.DefaultMachine().Space(3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(space, space.EqualSplit())
	if err != nil {
		t.Fatal(err)
	}
	w := ResctrlWriter{Root: t.TempDir()}
	if err := w.Apply(plan); err != nil {
		t.Fatal(err)
	}
	// Directory layout: one group per job with the two control files.
	for j := 0; j < 3; j++ {
		if _, err := os.Stat(w.groupDir(j)); err != nil {
			t.Fatalf("missing group dir: %v", err)
		}
		got, err := w.ReadGroup(j)
		if err != nil {
			t.Fatal(err)
		}
		want := plan.Jobs[j]
		if got.CATMask != want.CATMask || got.MBAPercent != want.MBAPercent {
			t.Errorf("job %d read back %+v, want %+v", j, got, want)
		}
		if len(got.CPUSet) != len(want.CPUSet) {
			t.Errorf("job %d cpus %v, want %v", j, got.CPUSet, want.CPUSet)
		}
	}
	// Re-apply with a different partition: groups are rewritten.
	moved, ok := space.Move(space.EqualSplit(), 1, 0, 1)
	if !ok {
		t.Fatal("move failed")
	}
	plan2, err := Compile(space, moved)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(plan2); err != nil {
		t.Fatal(err)
	}
	got, err := w.ReadGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.CATMask != plan2.Jobs[1].CATMask {
		t.Error("re-apply did not rewrite schemata")
	}
}

func TestResctrlWriterValidation(t *testing.T) {
	if err := (ResctrlWriter{}).Apply(Plan{}); err == nil {
		t.Error("empty root accepted")
	}
	bad := Plan{Jobs: []JobAllocation{{Job: 0, CATMask: 0, MBAPercent: 50}}}
	if err := (ResctrlWriter{Root: t.TempDir()}).Apply(bad); err == nil {
		t.Error("invalid plan accepted")
	}
}

// TestWriterPruneLeavesLookAlikes: pruning deletes only the directories
// groupDir names. A foreign satori-job03 or satori-job+3 parses to index 3
// under strconv.Atoi, but neither is a group the writer made, so shrinking
// the plan to 3 groups must leave both, and the files in them, alone while
// the real stale satori-job3 goes.
func TestWriterPruneLeavesLookAlikes(t *testing.T) {
	w := ResctrlWriter{Root: t.TempDir()}
	names := []string{"satori-job03", "satori-job+3", "satori-job3"}
	for _, name := range names {
		if err := os.MkdirAll(filepath.Join(w.Root, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(w.Root, name, "tasks"), []byte("42\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	space, err := sim.DefaultMachine().Space(3)
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
	for _, name := range names[:2] {
		if _, err := os.Stat(filepath.Join(w.Root, name, "tasks")); err != nil {
			t.Errorf("prune touched the foreign %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(w.Root, "satori-job3")); !os.IsNotExist(err) {
		t.Errorf("stale satori-job3 survived a 3-group apply: %v", err)
	}
	for j := 0; j < 3; j++ {
		if _, err := w.ReadGroup(j); err != nil {
			t.Errorf("group %d: %v", j, err)
		}
	}
}
