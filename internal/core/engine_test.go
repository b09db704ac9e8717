package core

import (
	"fmt"
	"math"
	"testing"

	"satori/internal/gp"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/stats"
)

// syntheticEnv provides a deterministic (throughput, fairness) landscape
// over a small space so engine behavior can be tested without the full
// simulator.
type syntheticEnv struct {
	space *resource.Space
	rng   *stats.RNG
	noise float64
}

func newSyntheticEnv(noise float64) *syntheticEnv {
	return &syntheticEnv{
		space: resource.MustNewSpace(2,
			resource.Resource{Kind: resource.Cores, Units: 8},
			resource.Resource{Kind: resource.LLCWays, Units: 6},
		),
		rng:   stats.NewRNG(21),
		noise: noise,
	}
}

// eval returns (throughput, fairness): throughput peaks when job 0 is
// favored on cores and job 1 on ways; fairness peaks at the equal split.
func (e *syntheticEnv) eval(c resource.Config) (float64, float64) {
	c0 := float64(c.Alloc[0][0]) / 8
	w1 := float64(c.Alloc[1][1]) / 6
	tp := 0.4 + 0.3*math.Exp(-8*(c0-0.75)*(c0-0.75)) + 0.3*math.Exp(-8*(w1-0.67)*(w1-0.67))
	imb := e.space.Imbalance(c)
	fair := 1 / (1 + imb)
	if e.noise > 0 {
		tp *= 1 + e.noise*e.rng.NormFloat64()
		fair *= 1 + e.noise*e.rng.NormFloat64()
	}
	return clamp01(tp), clamp01(fair)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// drive runs the engine on the synthetic environment for n ticks and
// returns the mean balanced objective over the second half of the run.
func drive(t *testing.T, eng *Engine, env *syntheticEnv, n int) float64 {
	t.Helper()
	current := env.space.EqualSplit()
	var acc stats.Welford
	for tick := 1; tick <= n; tick++ {
		tp, fair := env.eval(current)
		if tick > n/2 {
			acc.Add(0.5*tp + 0.5*fair)
		}
		obs := policy.Observation{
			Tick: tick, Time: float64(tick) * 0.1,
			Throughput: tp, Fairness: fair,
		}
		next := eng.Decide(obs, current)
		if err := env.space.Validate(next); err != nil {
			t.Fatalf("engine produced invalid config at tick %d: %v", tick, err)
		}
		current = next
	}
	return acc.Mean()
}

func TestEngineProducesValidConfigs(t *testing.T) {
	env := newSyntheticEnv(0.01)
	eng, err := New(env.space, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, eng, env, 120)
	if eng.FitFailures() != 0 {
		t.Errorf("%d proxy fit failures", eng.FitFailures())
	}
}

func TestEngineBeatsRandomSearch(t *testing.T) {
	env := newSyntheticEnv(0.01)
	eng, err := New(env.space, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	engScore := drive(t, eng, env, 200)

	// Random baseline on an identical fresh environment.
	env2 := newSyntheticEnv(0.01)
	rng := stats.NewRNG(3)
	current := env2.space.EqualSplit()
	var acc stats.Welford
	for tick := 1; tick <= 200; tick++ {
		tp, fair := env2.eval(current)
		if tick > 100 {
			acc.Add(0.5*tp + 0.5*fair)
		}
		current = env2.space.Random(rng)
	}
	if engScore <= acc.Mean() {
		t.Errorf("engine %.4f did not beat random search %.4f", engScore, acc.Mean())
	}
}

func TestEngineSeedsWithInitialSet(t *testing.T) {
	env := newSyntheticEnv(0)
	eng, err := New(env.space, Options{Seed: 4, InitialSamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	current := env.space.EqualSplit()
	// The first decisions must walk the low-imbalance initial set; the
	// very first returned config is the equal split itself (head of
	// S_init).
	obs := policy.Observation{Tick: 1, Throughput: 0.5, Fairness: 0.5}
	first := eng.Decide(obs, current)
	if !first.Equal(env.space.EqualSplit()) {
		t.Errorf("first decision is not the equal split: %s", first.Key())
	}
	for tick := 2; tick <= 5; tick++ {
		obs.Tick = tick
		next := eng.Decide(obs, current)
		if env.space.Imbalance(next) > 0.6 {
			t.Errorf("initial sample %d too imbalanced: %s", tick, next.Key())
		}
		current = next
	}
}

func TestEngineNames(t *testing.T) {
	space := newSyntheticEnv(0).space
	cases := []struct {
		opt  Options
		want string
	}{
		{Options{}, "satori"},
		{Options{Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWT: 0.5}, "satori-static"},
		{Options{Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWT: 1}, "satori-throughput"},
		{Options{Scheduler: SchedulerOptions{Mode: WeightsStatic}, StaticWT: 0}, "satori-fairness"},
		{Options{Scheduler: SchedulerOptions{Mode: WeightsFavorStronger}}, "satori-favor-stronger"},
		{Options{Name: "custom"}, "custom"},
	}
	for _, c := range cases {
		eng, err := New(space, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestEngineManagedMask(t *testing.T) {
	env := newSyntheticEnv(0.01)
	eng, err := New(env.space, Options{Seed: 5, Managed: []resource.Kind{resource.LLCWays}})
	if err != nil {
		t.Fatal(err)
	}
	equal := env.space.EqualSplit()
	current := equal
	for tick := 1; tick <= 80; tick++ {
		tp, fair := env.eval(current)
		next := eng.Decide(policy.Observation{Tick: tick, Throughput: tp, Fairness: fair}, current)
		// Cores (row 0) must stay pinned at the equal split.
		for j := range next.Alloc[0] {
			if next.Alloc[0][j] != equal.Alloc[0][j] {
				t.Fatalf("tick %d: unmanaged cores row changed: %v", tick, next.Alloc[0])
			}
		}
		current = next
	}
}

func TestEngineRejectsEmptyManagedMask(t *testing.T) {
	space := newSyntheticEnv(0).space
	if _, err := New(space, Options{Managed: []resource.Kind{resource.Power}}); err == nil {
		t.Error("mask matching no resources accepted")
	}
}

// A record keeps a unit count in 16 bits, so New refuses a row of more.
func TestEngineRejectsUnitsPastTheRecords(t *testing.T) {
	space := resource.MustNewSpace(2, resource.Resource{Kind: resource.Cores, Units: math.MaxUint16 + 1})
	if _, err := New(space, Options{}); err == nil {
		t.Error("a row of 65 536 units accepted")
	}
}

func TestEngineInstrumentation(t *testing.T) {
	env := newSyntheticEnv(0.01)
	eng, err := New(env.space, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, eng, env, 60)
	w := eng.LastWeights()
	if w.T+w.F == 0 {
		t.Error("LastWeights empty after run")
	}
	if eng.LastObjective() <= 0 {
		t.Error("LastObjective not recorded")
	}
	if eng.Records().Len() == 0 {
		t.Error("no records accumulated")
	}
	// Proxy change becomes available once at least two refits happened
	// on overlapping windows.
	if eng.ProxyChange() < 0 {
		t.Error("negative proxy change")
	}
}

func TestEngineReexploresAfterLandscapeShift(t *testing.T) {
	// Phase-change behavior: after the landscape moves, the engine must
	// track the new optimum (sliding window + re-evaluation).
	env := newSyntheticEnv(0.005)
	eng, err := New(env.space, Options{Seed: 7, Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	current := env.space.EqualSplit()
	evalShifted := func(c resource.Config) (float64, float64) {
		// Shifted landscape: throughput now peaks when job 1 gets
		// the cores.
		c1 := float64(c.Alloc[0][1]) / 8
		tp := 0.4 + 0.6*math.Exp(-8*(c1-0.75)*(c1-0.75))
		imb := env.space.Imbalance(c)
		return clamp01(tp), 1 / (1 + imb)
	}
	var before, after stats.Welford
	for tick := 1; tick <= 400; tick++ {
		var tp, fair float64
		if tick <= 200 {
			tp, fair = env.eval(current)
		} else {
			tp, fair = evalShifted(current)
		}
		if tick > 120 && tick <= 200 {
			before.Add(0.5*tp + 0.5*fair)
		}
		if tick > 320 {
			after.Add(0.5*tp + 0.5*fair)
		}
		current = eng.Decide(policy.Observation{Tick: tick, Throughput: tp, Fairness: fair}, current)
	}
	// After the shift the engine should recover to a comparable
	// objective level (within 15% of its pre-shift performance).
	if after.Mean() < 0.85*before.Mean() {
		t.Errorf("engine failed to re-adapt: before %.4f, after %.4f", before.Mean(), after.Mean())
	}
}

func TestRecords(t *testing.T) {
	space := newSyntheticEnv(0).space
	recs := NewRecords()
	eq := space.EqualSplit()
	recs.Update(space, eq, 0.5, 0.6, 1)
	if recs.Len() != 1 || recs.lookup(eq) < 0 {
		t.Fatal("record not stored")
	}
	// Update overwrites with the latest observation.
	recs.Update(space, eq, 0.7, 0.8, 2)
	if recs.Len() != 1 {
		t.Fatal("duplicate record created")
	}
	w := recs.Window(10)
	if len(w) != 1 || w[0].Throughput != 0.7 || w[0].Visits != 2 {
		t.Fatalf("window = %+v", w[0])
	}
	// Objective reconstruction under fresh weights — the Sec. III-B
	// software reconstruction.
	if got := w[0].Objective(Weights{T: 0.75, F: 0.25}); math.Abs(got-(0.75*0.7+0.25*0.8)) > 1e-12 {
		t.Errorf("Objective = %g", got)
	}
	// Window ordering: most recent first, capped at n.
	other, _ := space.Move(eq, 0, 0, 1)
	recs.Update(space, other, 0.1, 0.1, 5)
	w = recs.Window(1)
	if len(w) != 1 || !w[0].Config.Equal(other) {
		t.Error("window not ordered by recency")
	}
	if got := recs.Window(0); len(got) != 2 {
		t.Errorf("Window(0) should return all records, got %d", len(got))
	}
}

func TestRecordsDoNotAliasConfig(t *testing.T) {
	space := newSyntheticEnv(0).space
	recs := NewRecords()
	c := space.EqualSplit()
	recs.Update(space, c, 0.5, 0.5, 1)
	c.Alloc[0][0] = 99
	if recs.Window(1)[0].Config.Alloc[0][0] == 99 {
		t.Error("record aliases caller's config")
	}
}

func TestEngineAcquisitionVariants(t *testing.T) {
	env := newSyntheticEnv(0.01)
	for _, acq := range []string{"ei", "ucb", "pi", "ts"} {
		eng, err := New(env.space, Options{Seed: 11, Acquisition: acq})
		if err != nil {
			t.Fatalf("%s: %v", acq, err)
		}
		score := drive(t, eng, env, 120)
		if score <= 0 {
			t.Errorf("%s produced degenerate score %g", acq, score)
		}
	}
	if _, err := New(env.space, Options{Acquisition: "bogus"}); err == nil {
		t.Error("unknown acquisition accepted")
	}
}

func TestRecordsEviction(t *testing.T) {
	space := newSyntheticEnv(0).space
	recs := NewRecords()
	recs.cap = 5
	rng := stats.NewRNG(40)
	// Insert many distinct configurations; the store must stay bounded
	// and keep the most recent ones.
	var last resource.Config
	for tick := 1; tick <= 200; tick++ {
		c := space.Random(rng)
		recs.Update(space, c, 0.5, 0.5, tick)
		last = c
	}
	if recs.Len() > 6 {
		t.Errorf("records grew to %d with cap 5", recs.Len())
	}
	if recs.lookup(last) < 0 {
		t.Error("most recent record was evicted")
	}
	// The window still returns newest-first.
	w := recs.Window(3)
	for i := 1; i < len(w); i++ {
		if w[i].LastTick > w[i-1].LastTick {
			t.Error("window ordering broken after eviction")
		}
	}
	if (&Records{cap: 1}).Len() != 0 {
		t.Error("empty store wrong")
	}
	recs.cap = 1
	recs.Update(space, space.EqualSplit(), 0.5, 0.5, 999)
	if recs.Len() > 2 {
		t.Errorf("cap 1 kept %d records", recs.Len())
	}

	// Ties at the oldest tick: the victim is the smallest key among them,
	// which in window order is the first of the oldest tick's records, not
	// the last record of the window.
	tied := NewRecords()
	tied.cap = 4
	var cfgs []resource.Config
	for c0 := 1; c0 <= 5; c0++ {
		c := space.EqualSplit()
		c.Alloc[0][0], c.Alloc[0][1] = c0, 8-c0
		cfgs = append(cfgs, c)
	}
	for _, c := range cfgs[:3] {
		tied.Update(space, c, 0.5, 0.5, 7)
	}
	tied.Update(space, cfgs[3], 0.5, 0.5, 8)
	w = tied.Window(0)
	smallest := cfgs[0].Key()
	if w[0].LastTick != 8 || w[1].Key != smallest || w[3].LastTick != 7 || w[1].Key >= w[2].Key || w[2].Key >= w[3].Key {
		t.Fatalf("window before eviction not in (tick desc, key asc) order: %v", windowKeys(w))
	}
	tied.Update(space, cfgs[4], 0.5, 0.5, 9)
	w = tied.Window(0)
	if tied.Len() != 4 {
		t.Fatalf("Len = %d after one eviction at cap 4", tied.Len())
	}
	for _, rec := range w {
		if rec.Key == smallest {
			t.Fatalf("kept %s, the smallest key at the oldest tick: window %v", smallest, windowKeys(w))
		}
	}
	if w[2].LastTick != 7 || w[3].LastTick != 7 {
		t.Fatalf("the other two tick-7 records must survive: window %v", windowKeys(w))
	}
}

// appendManagedNeighbors is the pool's neighborhood stage as it was before
// neighborhoods were described instead of built, kept as the oracle: every
// one-unit move of c within managed rows, copied onto the pool, enumerated
// row, then donor, then receiver.
func appendManagedNeighbors(e *Engine, pool []resource.Config, c resource.Config) []resource.Config {
	for _, r := range e.managedRows {
		for from := 0; from < e.space.Jobs; from++ {
			if c.Alloc[r][from] <= 1 {
				continue
			}
			for to := 0; to < e.space.Jobs; to++ {
				if to == from {
					continue
				}
				n := e.space.NewConfig()
				n.CopyFrom(c)
				n.Alloc[r][from]--
				n.Alloc[r][to]++
				pool = append(pool, n)
			}
		}
	}
	return pool
}

// sameBits reports whether two encodings are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPoolMatchesEagerNeighbours holds the described pool to the built one
// over random spaces to search (2–24 jobs, 1–3 rows of J to 3J+5 units,
// random Managed masks, 31 to 65 fresh candidates; a space of one
// configuration, which New leaves without a pool, is drawn again) and top
// records whose rows often sit on the 1-unit floor. The fresh candidates
// are replayed from a copy of the engine's generator with the plain draws
// (plainRandomInto, plainWalkInto). Against that eager pool it checks the
// pool size and each neighborhood's end, every candidate decoded by
// candidate, and every column the pool leaves in a scratch off the shared
// list scribbled with NaN — the fresh panel buildPool writes, then the
// whole pool poolPoints grows it to, across the panel cut when the fresh
// count is not a multiple of the panel width — against VectorInto of the
// eager configuration, bit for bit. Thompson sampling's pool posterior
// equals the one over the eager vectors loaded as points. A winner settle
// hands out is a configuration of its own: mutating it leaves its record,
// and the pool, untouched.
func TestPoolMatchesEagerNeighbours(t *testing.T) {
	kinds := []resource.Kind{resource.Cores, resource.LLCWays, resource.MemBW}
	const trials = 200
	neighbors, floorRows, columns, posteriors, regrown := 0, 0, 0, 0, 0
	redrawn := 0
	for trial := uint64(1); trial <= trials; trial++ {
		rng := stats.NewRNG(trial)
		var (
			jobs    int
			rs      []resource.Resource
			space   *resource.Space
			managed []resource.Kind
			fresh   int
			e       *Engine
		)
		for e == nil || e.single {
			if e != nil {
				redrawn++
			}
			jobs, rs, managed = 1+rng.Intn(24), nil, nil
			for _, k := range kinds[:1+rng.Intn(len(kinds))] {
				rs = append(rs, resource.Resource{Kind: k, Units: jobs + rng.Intn(2*jobs+6)})
			}
			space = resource.MustNewSpace(jobs, rs...)
			if rng.Intn(3) > 0 {
				for _, r := range rs {
					if rng.Intn(2) == 0 {
						managed = append(managed, r.Kind)
					}
				}
				if len(managed) == 0 {
					managed = append(managed, rs[rng.Intn(len(rs))].Kind)
				}
			}
			fresh = []int{31, 32, 33, 65}[rng.Intn(4)]
			var err error
			if e, err = New(space, Options{Seed: trial, Managed: managed, Candidates: fresh}); err != nil {
				t.Fatal(err)
			}
		}
		where := func() string {
			return fmt.Sprintf("trial %d (%d jobs, %v, managed %v, %d fresh)", trial, jobs, rs, managed, fresh)
		}

		// One to three distinct top records; a third of their rows put
		// every job but one on its floor.
		recs := e.recs
		var tk tick
		for tk.topN < 1+rng.Intn(3) {
			c := space.Random(rng)
			for r := range c.Alloc {
				if rng.Intn(3) == 0 {
					rich := rng.Intn(jobs)
					for j := range c.Alloc[r] {
						c.Alloc[r][j] = 1
					}
					c.Alloc[r][rich] = rs[r].Units - (jobs - 1)
					floorRows++
				}
			}
			if recs.lookup(c) >= 0 {
				continue
			}
			tk.top[tk.topN] = recs.ref(recs.Update(space, c, rng.Float64(), rng.Float64(), 1))
			tk.topN++
		}
		tk.incumbent = tk.top[0].slot
		e.buildTables()
		sc := gp.TakeScratch()
		tk.scratch = sc
		scribble := func(from int) {
			buf := sc.Points.Data[from:cap(sc.Points.Data)]
			for i := range buf {
				buf[i] = math.NaN()
			}
		}
		sc.Points.Reset(0, space.Dim())
		scribble(0)
		draws := *e.rng
		e.buildPool(&tk, nil)

		var want []resource.Config
		for i := range e.opt.Candidates {
			c := space.NewConfig()
			if i < e.opt.Candidates/2 {
				plainRandomInto(&draws, space, c)
				e.pinUnmanaged(c)
			} else {
				plainWalkInto(e, &draws, c, recs.configOf(tk.incumbent))
			}
			want = append(want, c)
		}
		if draws != *e.rng {
			t.Fatalf("%s: the pool's draws end elsewhere than the plain draws'", where())
		}
		for i, rec := range tk.top[:tk.topN] {
			want = appendManagedNeighbors(e, want, recs.configOf(rec.slot))
			if e.poolEnd[i] != len(want) {
				t.Fatalf("%s: neighborhood %d ends at %d, eager pool at %d", where(), i, e.poolEnd[i], len(want))
			}
		}
		if e.candCount != len(want) {
			t.Fatalf("%s: pool of %d candidates, eager pool %d", where(), e.candCount, len(want))
		}
		neighbors += len(want) - e.opt.Candidates
		vectors := make([][]float64, len(want))
		for i, c := range want {
			vectors[i] = space.VectorInto(nil, c)
		}

		check := func(pts *gp.Points, n int) {
			t.Helper()
			if pts.Len() != n {
				t.Fatalf("%s: the points hold %d, want %d", where(), pts.Len(), n)
			}
			for c := range n {
				at, stride := pts.Column(c)
				for d, v := range vectors[c] {
					if got := pts.Data[at+d*stride]; math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("%s: point %d of %d coordinate %d = %v, eager %v", where(), c, n, d, got, v)
					}
				}
			}
			columns += n
		}
		check(&sc.Points, e.opt.Candidates)
		for i, w := range want[:e.opt.Candidates] {
			if got := e.candidate(&sc.Points, i); !got.Equal(w) {
				t.Fatalf("%s: fresh candidate(%d) = %s, eager %s", where(), i, got.Key(), w.Key())
			}
		}
		scribble(len(sc.Points.Data))
		check(e.poolPoints(&sc.Points), len(want))
		if fresh%32 != 0 && len(want) > fresh {
			regrown++
		}
		for i, w := range want {
			if got := e.candidate(&sc.Points, i); !got.Equal(w) {
				t.Fatalf("%s: candidate(%d) = %s, eager %s", where(), i, got.Key(), w.Key())
			}
		}

		// Thompson sampling's joint posterior over the pool, from the points
		// poolPoints writes and from the eager vectors.
		if len(want) <= 200 {
			var xs [][]float64
			var ys []float64
			for _, rec := range tk.top[:tk.topN] {
				xs, ys = append(xs, space.Vector(recs.configOf(rec.slot))), append(ys, rng.Float64())
			}
			if err := e.model.Reset(xs, ys); err != nil {
				t.Fatal(err)
			}
			var eager gp.Points
			eager.Load(vectors)
			mu, cov := e.model.Posterior(&sc.Points)
			wantMu, wantCov := e.model.Posterior(&eager)
			if !sameBits(mu, wantMu) || !sameBits(cov.Data, wantCov.Data) {
				t.Fatalf("%s: pool posterior differs from the eager vectors'", where())
			}
			posteriors++
		}

		// Probe a random winner and scribble over it.
		var keys [len(tk.top)]string
		for i, rec := range tk.top[:tk.topN] {
			keys[i] = recs.configOf(rec.slot).Key()
		}
		idx := rng.Intn(len(want))
		next := e.settle(&tk, idx, math.Inf(1), nil)
		if !next.Equal(want[idx]) {
			t.Fatalf("%s: settle(%d) = %s, eager %s", where(), idx, next.Key(), want[idx].Key())
		}
		for _, row := range next.Alloc {
			for j := range row {
				row[j] = 99
			}
		}
		for i, rec := range tk.top[:tk.topN] {
			if key := recs.configOf(rec.slot).Key(); key != keys[i] {
				t.Fatalf("%s: mutating winner %d changed record %s to %s", where(), idx, keys[i], key)
			}
		}
		if got := e.candidate(&sc.Points, idx); !got.Equal(want[idx]) {
			t.Fatalf("%s: after mutating the winner, candidate(%d) = %s, eager %s", where(), idx, got.Key(), want[idx].Key())
		}
		sc.Release()
	}
	if neighbors == 0 || floorRows == 0 || posteriors == 0 || regrown == 0 {
		t.Fatalf("%d neighbors compared, %d floor rows, %d posteriors, %d pools grown across a panel cut: nothing exercised", neighbors, floorRows, posteriors, regrown)
	}
	t.Logf("%d trials (%d one-configuration spaces drawn again), %d neighbors, %d columns compared, %d rows on the floor, %d pool posteriors, %d pools grown across a panel cut",
		trials, redrawn, neighbors, columns, floorRows, posteriors, regrown)
}
