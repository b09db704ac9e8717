package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"satori/internal/harness"
	"satori/internal/policies/oracle"
	"satori/internal/policy"
	"satori/internal/rdt"
	"satori/internal/workloads"
)

// fig7Lineup is the policy list cmd/experiments runs for fig 7: the five
// competing techniques from the shared registry, the two single-goal
// SATORI variants and the two single-goal oracles. (RunSuite adds the
// Balanced Oracle reference itself, once per mix.)
func fig7Lineup() []harness.NamedFactory {
	return append(harness.CompetingPolicies(),
		harness.NamedFactory{Name: "satori-throughput", Factory: harness.SatoriStaticFactory(1)},
		harness.NamedFactory{Name: "satori-fairness", Factory: harness.SatoriStaticFactory(0)},
		harness.NamedFactory{Name: "throughput-oracle", Factory: harness.OracleFactory(oracle.Throughput, oracle.Options{})},
		harness.NamedFactory{Name: "fairness-oracle", Factory: harness.OracleFactory(oracle.Fairness, oracle.Options{})},
	)
}

// suiteMixes is every third of the paper's 21 PARSEC mixes: seven mixes
// that between them hold every benchmark, so that one pass (70 cells)
// takes about three seconds and a run fits several.
func suiteMixes() ([]workloads.Mix, error) {
	all, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		return nil, err
	}
	var out []workloads.Mix
	for i := 0; i < len(all); i += 3 {
		out = append(out, all[i])
	}
	return out, nil
}

// cellNames maps a cell span to the policy it ran, for the per-policy
// cell times.
type cellNames struct {
	mu    sync.Mutex
	names map[int32]string
}

// traceFactory opens a cell span when harness.Run builds the cell's policy
// (the first thing a cell does after constructing its simulator) and wraps
// the policy so that every Decide is a child of that cell.
func traceFactory(nf harness.NamedFactory, tr *tracer, cells *cellNames) harness.NamedFactory {
	inner := nf.Factory
	nf.Factory = func(p *rdt.SimPlatform, seed uint64) (policy.Policy, error) {
		cell := tr.begin(spanCell, tr.cur.Load(), int32(seed))
		cells.mu.Lock()
		cells.names[cell] = nf.Name
		cells.mu.Unlock()
		in, err := inner(p, seed)
		if err != nil {
			return nil, err
		}
		return &tracedPolicy{in: in, tr: tr, parent: cell, cell: true}, nil
	}
	return nf
}

func runSuite(e env) (*result, error) {
	mixes, err := suiteMixes()
	if err != nil {
		return nil, err
	}
	plain := fig7Lineup()
	lineup := plain
	cells := &cellNames{names: map[int32]string{}}
	if e.tr != nil {
		lineup = fig7Lineup()
		for i := range lineup {
			lineup[i] = traceFactory(lineup[i], e.tr, cells)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	pass := func(policies []harness.NamedFactory, ticks int, cache *harness.CellCache) (*harness.SuiteResult, error) {
		return harness.RunSuite(harness.SuiteSpec{
			Mixes: mixes, Policies: policies,
			Base:    harness.DefaultSuiteBase(e.seed, ticks),
			Workers: workers, Cache: cache,
		})
	}

	// Set-up: one pass at a tenth of the run length, so that code paths,
	// heap and worker pool are warm before the timed passes.
	res := &result{m: newMeter(16, workers)}
	res.rawSetup, res.setup, err = timeSetup(workers, func() error {
		_, err := pass(plain, e.n(60, 5), nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	e.traceOn()

	ticks := e.n(600, 20)
	nCells := len(mixes) * (len(lineup) + 1)
	perPass := float64(nCells * ticks)
	m0 := mallocCount()
	now := time.Now()
	deadline := now.Add(e.slice)
	// A pass is seconds long, so another one starts only if, going by the
	// last, it would end inside the slice.
	var lastPass time.Duration
	var last *harness.SuiteResult
	for n := 1; n == 1 || now.Add(lastPass).Before(deadline); n++ {
		var sp int32
		if e.tr != nil {
			sp = e.tr.beginOp(int32(n))
		}
		// Both workers are busy for the whole pass, so the host's speed
		// is sampled in the background and the pass is its own chunk.
		bg := startHostSampler(workers)
		sr, err := pass(lineup, ticks, nil)
		if e.tr != nil {
			e.tr.endOp(sp)
		}
		lastPass = time.Since(now)
		res.m.sample(bg.done())
		res.m.observe(lastPass)
		res.m.closeChunk(perPass, float64(lastPass))
		now = time.Now()
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n, err)
		}
		last = sr
		res.attempted += int64(nCells)
		digest := suiteChecks(sr, res)
		if n == 1 {
			res.digest = digest
		} else if digest != res.digest {
			res.errs = append(res.errs, fmt.Sprintf("pass %d digest %s differs from pass 1 %s", n, digest, res.digest))
		}
	}
	res.mallocs = mallocCount() - m0
	res.liveHeap = liveHeapOf(last)
	res.ticks = perPass * float64(len(res.m.ops))

	if e.tr != nil {
		res.extras = suiteExtras(e.tr, cells)
		warm, err := cacheWarmPass(func(c *harness.CellCache) error {
			_, err := pass(plain, ticks, c)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("cell-cache pass: %w", err)
		}
		res.extras = append(res.extras, metric{"harness.cache_warm_s", warm.Seconds(), "s"})
		res.counters = map[string]float64{
			"harness.parallel_efficiency": sum(e.tr.durations(spanCell)) / (sum(res.m.rawOps) * float64(workers)),
		}
	}
	return res, nil
}

// suiteChecks verifies one pass, records SATORI's share of the Balanced
// Oracle as the quality, and returns the pass digest.
func suiteChecks(sr *harness.SuiteResult, res *result) string {
	means := sr.Means()
	sat, rnd := means["satori"], means["random"]
	res.quality = [2]float64{sat.PctThroughput, sat.PctFairness}
	if sat.PctThroughput < rnd.PctThroughput || sat.PctFairness < rnd.PctFairness {
		res.errs = append(res.errs, fmt.Sprintf("SATORI (%.3f, %.3f) below Random (%.3f, %.3f)",
			sat.PctThroughput, sat.PctFairness, rnd.PctThroughput, rnd.PctFairness))
	}
	dig := newDigester()
	for _, name := range sr.Policies {
		for _, sc := range sr.Scores[name] {
			if sc.Raw == nil || sc.Raw.Ticks == 0 {
				res.failed++
				continue
			}
			dig.floats(fmt.Sprint(name, " mix ", sc.MixIndex), sc.Raw.MeanThroughput, sc.Raw.MeanFairness, float64(sc.Raw.Applies))
		}
	}
	for i, r := range sr.OracleRaw {
		dig.floats(fmt.Sprint("oracle ", i), r.MeanThroughput, r.MeanFairness)
	}
	return dig.sum()
}

// suiteExtras reports what the cell spans show: the median cell, and the
// mean cell per policy (which policy owns the pass).
func suiteExtras(tr *tracer, cells *cellNames) []metric {
	out := []metric{{"harness.cell_p50_ms", median(tr.durations(spanCell)) / 1e6, "ms"}}
	byPolicy := map[string][]float64{}
	for i, s := range tr.recorded() {
		if s.kind == spanCell && s.end >= s.start {
			name := cells.names[int32(i)]
			byPolicy[name] = append(byPolicy[name], float64(s.end-s.start))
		}
	}
	for _, nf := range fig7Lineup() {
		if ds := byPolicy[nf.Name]; len(ds) > 0 {
			out = append(out, metric{"policies." + nf.Name + ".cell_ms", sum(ds) / float64(len(ds)) / 1e6, "ms"})
		}
	}
	return out
}

// cacheWarmPass fills a throw-away cell cache with one pass and times a
// second pass against it. The cache lives next to the benchmark binary
// (inside the checkout's build directory) and is removed afterwards.
func cacheWarmPass(pass func(*harness.CellCache) error) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(filepath.Dir(self), "cellcache-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cache, err := harness.NewCellCache(dir)
	if err != nil {
		return 0, err
	}
	if err := pass(cache); err != nil {
		return 0, err
	}
	t := time.Now()
	err = pass(cache)
	return time.Since(t), err
}
