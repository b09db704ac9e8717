package rdt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"satori/internal/sim"
)

func TestTraceSamplerReplayLoops(t *testing.T) {
	s, err := NewTraceSampler(
		[]float64{10, 20},
		[][]float64{{1, 2}, {3, 4}, {5, 6}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs() != 2 {
		t.Fatalf("Jobs = %d, want 2", s.Jobs())
	}
	want := [][]float64{{1, 2}, {3, 4}, {5, 6}, {1, 2}} // wraps around
	for i, w := range want {
		row, err := s.Sample(Plan{})
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != w[0] || row[1] != w[1] {
			t.Errorf("sample %d = %v, want %v", i, row, w)
		}
	}
	iso, err := s.SampleIsolated()
	if err != nil {
		t.Fatal(err)
	}
	if iso[0] != 10 || iso[1] != 20 {
		t.Errorf("isolated = %v, want [10 20]", iso)
	}
	// Returned slices must be copies: corrupting one must not corrupt
	// the trace.
	iso[0] = -1
	iso2, _ := s.SampleIsolated()
	if iso2[0] != 10 {
		t.Error("SampleIsolated returned an aliased slice")
	}
}

func TestTraceSamplerValidation(t *testing.T) {
	if _, err := NewTraceSampler(nil, [][]float64{{1}}); err == nil {
		t.Error("empty baselines accepted")
	}
	if _, err := NewTraceSampler([]float64{1}, nil); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := NewTraceSampler([]float64{1, 2}, [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged row accepted")
	}
}

func TestIPSTraceRoundTrip(t *testing.T) {
	iso := []float64{2.5e9, 3e9, 1.25e9}
	rows := [][]float64{{1e9, 2e9, 3e8}, {1.5e9, 2.25e9, 4e8}}
	var buf strings.Builder
	if err := WriteIPSTrace(&buf, iso, rows); err != nil {
		t.Fatal(err)
	}
	s, err := LoadTraceSampler(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.SampleIsolated()
	for j := range iso {
		if got[j] != iso[j] {
			t.Errorf("isolated[%d] = %g, want %g", j, got[j], iso[j])
		}
	}
	for i := range rows {
		row, _ := s.Sample(Plan{})
		for j := range rows[i] {
			if row[j] != rows[i][j] {
				t.Errorf("row %d[%d] = %g, want %g", i, j, row[j], rows[i][j])
			}
		}
	}
}

func TestReadIPSTraceErrors(t *testing.T) {
	if _, _, err := ReadIPSTrace(strings.NewReader("# only comments\n")); err == nil {
		t.Error("comment-only trace accepted")
	}
	if _, _, err := ReadIPSTrace(strings.NewReader("1,2\nnot-a-number,3\n")); err == nil {
		t.Error("bad value accepted")
	}
	// A trace is outside input: what the loop would only count as bad
	// samples tick after tick (a NaN baseline zeroed every score, exit 0)
	// is refused here, naming the line.
	for name, c := range map[string]struct{ text, line string }{
		"NaN baseline":      {"NaN,2e9,2e9\n1e9,1e9,1e9\n", "line 1"},
		"zero baseline":     {"# capture\n0,2e9\n1e9,1e9\n", "line 2"},
		"negative baseline": {"-2e9,2e9\n1e9,1e9\n", "line 1"},
		"infinite sample":   {"2e9,2e9\n1e9,+Inf\n", "line 2"},
		"NaN sample":        {"2e9,2e9\n1e9,1e9\nnan,1e9\n", "line 3"},
		"negative sample":   {"2e9,2e9\n\n1e9,-1\n", "line 3"},
		"narrow row":        {"2e9,2e9\n1e9,1e9\n1e9\n", "line 3"},
		"wide row":          {"2e9,2e9\n1e9,1e9,1e9\n", "line 2"},
	} {
		if _, _, err := ReadIPSTrace(strings.NewReader(c.text)); err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), c.line) {
			t.Errorf("%s: error does not name %s: %v", name, c.line, err)
		}
	}
	// An idle job's zero sample is a reading, not corruption.
	if _, rows, err := ReadIPSTrace(strings.NewReader("2e9,2e9\n0,1e9\n")); err != nil || len(rows) != 1 {
		t.Errorf("zero sample refused: %v", err)
	}
}

func newTracePlatform(t *testing.T) *ResctrlPlatform {
	t.Helper()
	sampler, err := NewTraceSampler(
		[]float64{2e9, 3e9, 2.5e9},
		[][]float64{{1e9, 1.5e9, 1.2e9}, {1.1e9, 1.4e9, 1.3e9}},
	)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewResctrlPlatform(sim.DefaultMachine(), []string{"a", "b", "c"},
		ResctrlWriter{Root: t.TempDir()}, sampler, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Construction must already materialize the equal-split partition in the
// resctrl tree — a freshly built platform is a fully configured machine.
func TestResctrlPlatformInitialSplit(t *testing.T) {
	p := newTracePlatform(t)
	plan, err := Compile(p.Space(), p.Current())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		got, err := p.ReadGroup(j)
		if err != nil {
			t.Fatalf("job %d group missing after construction: %v", j, err)
		}
		want := plan.Jobs[j]
		if got.CATMask != want.CATMask || got.MBAPercent != want.MBAPercent {
			t.Errorf("job %d group = %+v, want %+v", j, got, want)
		}
	}
}

func TestResctrlPlatformApplyRejectsStaleShape(t *testing.T) {
	p := newTracePlatform(t)
	stale := p.Current()
	for r := range stale.Alloc {
		stale.Alloc[r] = stale.Alloc[r][:2] // same rows, a 2-job dimension
	}
	err := p.Apply(stale)
	var shape *ConfigShapeError
	if !errors.As(err, &shape) {
		t.Fatalf("Apply error = %v, want *ConfigShapeError", err)
	}
	if shape.ConfigJobs != 2 || shape.SpaceJobs != 3 {
		t.Errorf("shape = %+v, want 2 vs 3 jobs", shape)
	}
}

func TestResctrlPlatformSampleValidatesWidth(t *testing.T) {
	sampler, err := NewTraceSampler([]float64{1, 2}, [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// 3 job names over a 2-job trace: the width mismatch must surface
	// the moment the sampler is read, not as silent misattribution.
	p, err := NewResctrlPlatform(sim.DefaultMachine(), []string{"a", "b", "c"},
		ResctrlWriter{Root: t.TempDir()}, sampler, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Sample(); err == nil {
		t.Error("Sample accepted a 2-job trace on a 3-job platform")
	}
	if _, err := p.MeasureIsolated(); err == nil {
		t.Error("MeasureIsolated accepted 2 baselines on a 3-job platform")
	}
}

// External drift: between ticks, another agent (a human operator, a
// second controller, a node-cleanup script) rewrites a control group's
// schemata and cpus_list out from under the platform. Resync must
// restore every file from the in-memory configuration, and the next
// Apply of a genuinely new decision must land normally afterwards.
func TestResctrlPlatformResyncRestoresExternalDrift(t *testing.T) {
	p := newTracePlatform(t)
	dir := filepath.Join(p.writer.Root, "satori-job1")

	wantSchemata, err := os.ReadFile(filepath.Join(dir, "schemata"))
	if err != nil {
		t.Fatal(err)
	}
	wantCPUs, err := os.ReadFile(filepath.Join(dir, "cpus_list"))
	if err != nil {
		t.Fatal(err)
	}

	// The drift: well-formed but wrong values, exactly what a competing
	// writer would leave behind.
	if err := os.WriteFile(filepath.Join(dir, "schemata"), []byte("L3:0=fffff\nMB:0=100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cpus_list"), []byte("0-63\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	drifted, err := p.ReadGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	if drifted.CATMask != 0xfffff || drifted.MBAPercent != 100 {
		t.Fatalf("drift setup failed: read back %+v", drifted)
	}

	if err := p.Resync(); err != nil {
		t.Fatalf("Resync after external drift: %v", err)
	}
	gotSchemata, err := os.ReadFile(filepath.Join(dir, "schemata"))
	if err != nil {
		t.Fatal(err)
	}
	gotCPUs, err := os.ReadFile(filepath.Join(dir, "cpus_list"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotSchemata) != string(wantSchemata) {
		t.Errorf("schemata after Resync = %q, want restored %q", gotSchemata, wantSchemata)
	}
	if string(gotCPUs) != string(wantCPUs) {
		t.Errorf("cpus_list after Resync = %q, want restored %q", gotCPUs, wantCPUs)
	}

	// The loop keeps deciding after the repair: a fresh configuration
	// (one unit moved between jobs on resource 0) must compile and land.
	next := p.Current()
	next.Alloc[0][0]++
	next.Alloc[0][1]--
	if err := p.Apply(next); err != nil {
		t.Fatalf("Apply after Resync: %v", err)
	}
	plan, err := Compile(p.Space(), next)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.CATMask != plan.Jobs[0].CATMask || got.MBAPercent != plan.Jobs[0].MBAPercent {
		t.Errorf("job 0 after post-Resync Apply = %+v, want %+v", got, plan.Jobs[0])
	}
}
