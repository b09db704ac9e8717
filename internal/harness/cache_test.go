package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"satori/internal/core"
	"satori/internal/workloads"
)

func cachedSuiteSpec(t *testing.T, cache *CellCache) SuiteSpec {
	t.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	return SuiteSpec{
		Mixes: mixes[:2],
		Policies: []NamedFactory{
			{Name: "satori", Factory: SatoriFactory(core.Options{})},
			{Name: "random", Factory: onSim(random)},
		},
		Base:  DefaultSuiteBase(3, 80),
		Cache: cache,
	}
}

// TestCellCacheHitsAreByteIdentical is the cache contract: a warm-cache
// suite returns exactly the results of the uncached run — every float
// round-trips through JSON bit-identically — and the second pass serves
// every cell from disk.
func TestCellCacheHitsAreByteIdentical(t *testing.T) {
	cache, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := RunSuite(cachedSuiteSpec(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunSuite(cachedSuiteSpec(t, cache))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := cache.Stats()
	if hits != 0 || misses != 6 { // 2 mixes × (oracle + 2 policies)
		t.Fatalf("cold pass: %d hits, %d misses, want 0/6", hits, misses)
	}
	warm, err := RunSuite(cachedSuiteSpec(t, cache))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ = cache.Stats()
	if hits != 6 || misses != 6 {
		t.Fatalf("warm pass: %d hits, %d misses, want 6/6", hits, misses)
	}
	for _, name := range []string{"satori", "random"} {
		for i := range uncached.Scores[name] {
			u, c, w := uncached.Scores[name][i], cold.Scores[name][i], warm.Scores[name][i]
			if !reflect.DeepEqual(u.Raw, c.Raw) || !reflect.DeepEqual(u.Raw, w.Raw) {
				t.Fatalf("%s mix %d: cached result diverged:\nuncached %+v\ncold     %+v\nwarm     %+v",
					name, i, u.Raw, c.Raw, w.Raw)
			}
			if u.PctThroughput != w.PctThroughput || u.PctFairness != w.PctFairness {
				t.Fatalf("%s mix %d: normalized scores diverged", name, i)
			}
		}
	}
}

// suiteShaped reports whether a shape runs suites, i.e. whether the
// cell cache applies to it.
func suiteShaped(s shape) bool {
	switch s := s.(type) {
	case suiteRow, sweepRow:
		return true
	case seq:
		for _, part := range s {
			if suiteShaped(part) {
				return true
			}
		}
	}
	return false
}

// TestEverySuiteRowUsesTheCellCache extends the contract above to the
// experiment table: every row that runs suites — suite rows, sweeps and
// the replication — must fill the cache on a cold run, be served
// entirely from it on a warm one, and render the same bytes as without
// it. (Sweep points that shared a policy name used to alias here, and 13
// rows used to drop the cache.)
func TestEverySuiteRowUsesTheCellCache(t *testing.T) {
	for _, r := range experimentTable() {
		if !suiteShaped(r.shape) && r.id != "replication" {
			continue
		}
		t.Run(r.id, func(t *testing.T) {
			cache, err := NewCellCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			render := func(c *CellCache) string {
				rep, err := r.run(ExpOptions{Ticks: 30, Seed: 7, MixLimit: 1, Cache: c})
				if err != nil {
					t.Fatal(err)
				}
				return rep.String()
			}
			uncached, cold := render(nil), render(cache)
			_, stored, _ := cache.Stats()
			if stored == 0 {
				t.Fatal("cold run stored no cells: the row does not pass the cache on")
			}
			warm := render(cache)
			if _, misses, _ := cache.Stats(); misses != stored {
				t.Errorf("warm run re-simulated %d cells", misses-stored)
			}
			if cold != uncached || warm != uncached {
				t.Errorf("cached report diverged:\nuncached:\n%s\ncold:\n%s\nwarm:\n%s", uncached, cold, warm)
			}
		})
	}
}

// TestCellCacheKeyDiscriminates: any field that changes a run's outcome
// must change its key.
func TestCellCacheKeyDiscriminates(t *testing.T) {
	cache, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultSuiteBase(3, 80)
	base.Profiles = mixes[0].Profiles
	k0, err := cache.key(base, "policy:satori")
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]func(RunSpec) RunSpec{
		"seed":    func(r RunSpec) RunSpec { r.Seed++; return r },
		"ticks":   func(r RunSpec) RunSpec { r.Ticks++; return r },
		"noise":   func(r RunSpec) RunSpec { r.NoiseSigma = 0.05; return r },
		"mix":     func(r RunSpec) RunSpec { r.Profiles = mixes[1].Profiles; return r },
		"machine": func(r RunSpec) RunSpec { m := *r.Machine; m.Cores++; r.Machine = &m; return r },
	}
	for what, mutate := range variants {
		k, err := cache.key(mutate(base), "policy:satori")
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("changing %s left the cell key unchanged", what)
		}
	}
	if k, _ := cache.key(base, "policy:random"); k == k0 {
		t.Error("changing the policy identity left the cell key unchanged")
	}
	if k, _ := cache.key(base, "policy:satori"); k != k0 {
		t.Error("identical specs hashed to different keys")
	}
}

// TestCellCacheSkipsTraceCells: KeepTrace cells bypass the cache — the
// per-tick trace is not serialized, so serving them from disk would
// silently drop it.
func TestCellCacheSkipsTraceCells(t *testing.T) {
	cache, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSuiteBase(3, 40)
	spec.Profiles = mixes[0].Profiles
	spec.Policy = onSim(random)
	spec.KeepTrace = true
	for i := 0; i < 2; i++ {
		res, err := cache.Run(spec, "policy:random")
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("KeepTrace run lost its trace")
		}
	}
	hits, misses, skips := cache.Stats()
	if hits != 0 || misses != 0 || skips != 2 {
		t.Fatalf("stats %d/%d/%d, want 0 hits, 0 misses, 2 skips", hits, misses, skips)
	}
}

// TestCellCacheRerunsTornFile: a cell file that does not decode is a miss
// — the cell runs afresh and its file is rewritten — never an error.
func TestCellCacheRerunsTornFile(t *testing.T) {
	cache, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSuiteBase(3, 40)
	spec.Profiles = mixes[0].Profiles
	spec.Policy = onSim(random)
	want, err := cache.Run(spec, "policy:random")
	if err != nil {
		t.Fatal(err)
	}
	key, err := cache.key(spec, "policy:random")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cache.dir, key+".json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := cache.Run(spec, "policy:random")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: %+v, want %+v", i, got, want)
		}
	}
	if hits, misses, _ := cache.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats %d hits, %d misses: want the torn file re-run once, then served", hits, misses)
	}
}

// TestCellCacheRerunsEmptyCell: a cell file that decodes to a result Run
// could not have returned — `null` and `{}` decode to a zero Result — is a
// miss like a torn one: the cell runs afresh and leaves a valid file.
func TestCellCacheRerunsEmptyCell(t *testing.T) {
	cache, err := NewCellCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultSuiteBase(3, 40)
	spec.Profiles = mixes[0].Profiles
	spec.Policy = onSim(random)
	want, err := cache.Run(spec, "policy:random")
	if err != nil {
		t.Fatal(err)
	}
	key, err := cache.key(spec, "policy:random")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cache.dir, key+".json")
	for i, blob := range []string{"null", "{}", `{"Ticks":-1}`} {
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := cache.Run(spec, "policy:random")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v, want %+v", blob, got, want)
		}
		if hits, misses, _ := cache.Stats(); hits != 0 || misses != int64(i+2) {
			t.Fatalf("%s: stats %d hits, %d misses: want the cell re-run", blob, hits, misses)
		}
		stored, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if res, ok := readCell(stored); !ok || !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: the re-run left %q behind", blob, stored)
		}
	}
}

// FuzzCellCacheFile: a cell file holds whatever a torn write, an older
// schema or a stray edit left there. Any bytes either miss (readCell
// refuses them and Run falls through to a fresh run) or decode to a Result
// Run could have returned that re-marshals and re-reads to the same value;
// nothing panics.
func FuzzCellCacheFile(f *testing.F) {
	valid, err := json.Marshal(&Result{PolicyName: "satori", Ticks: 80, MeanThroughput: 0.4375, MeanFairness: 0.9, StdFairness: 1e-300, Applies: 3})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid), string(valid[:len(valid)/2]), "", "{", "null", "{}", "[]", "0",
		`{"Ticks":1.5}`, `{"Ticks":"80"}`, `{"MeanFairness":1e400}`, `{"MeanFairness":-0}`,
		`{"Trace":{}}`, `{"Trace":null}`, `{"ticks":2,"Ticks":3}`, "{\"PolicyName\":\"\xff\"}",
		`{"Ticks":-1}`, `{"Ticks":1,"Applies":-2}`, `{"Ticks":1,"MeanFairness":-0.5}`, `{"Ticks":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		res, ok := readCell(blob)
		if !ok {
			if res != nil {
				t.Fatalf("%q: a miss returned a result", blob)
			}
			return
		}
		if !validCell(res) {
			t.Fatalf("%q: accepted %+v, which Run cannot return", blob, res)
		}
		again, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%q: accepted, but the result does not re-marshal: %v", blob, err)
		}
		back, ok := readCell(again)
		if !ok || !reflect.DeepEqual(back, res) {
			t.Fatalf("%q: read %+v, re-marshalled %s, re-read %+v (ok %v)", blob, res, again, back, ok)
		}
	})
}
