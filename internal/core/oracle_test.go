package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"satori/internal/bo"
	"satori/internal/gp"
	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/workloads"
)

// refitOracle holds an engine's every tick against the textbook proxy model
// and the plain draw functions. After each model-consulting Decide it fits
// gp.Fit from scratch on the engine's own window under that tick's weights,
// scores the engine's pool one candidate at a time with GP.Predict, and
// requires the engine's posterior and window means to agree to 1e-9, the
// acquisition to pick the same pool index from either posterior, and the
// decision to be the one that index and score call for (hold on failure,
// exploit below the threshold, else probe). Being tick-local, it names the
// first tick and candidate that disagree, and a disagreement cannot hide
// behind a decision that happens to match.
// On a settled engine's narrowed tick the pool is the one the engine scored:
// its drawn but unscored fresh slots are left out of both sides. A
// neighbourhood block the engine ruled out by its ceiling is left out of the
// engine's side only: the refit must score every point of it below the
// exploit threshold, and the verdict is still taken over the whole pool.
//
// The draw stream is held too (stream): every tick must take exactly the
// draws its decision calls for, and a tick narrows exactly when the
// oracle's own count of settled ticks says it must.
//
// The pool a tick scored lives in the scratch it borrowed, not in the
// engine: the fresh candidates as points, the posterior in its slots. The
// oracle hands the tick that scratch — it puts one of its own on top of the
// shared list just before Decide and keeps hold of it, emptied — and reads
// the pool from it after, once its points show that Decide scored there.
type refitOracle struct {
	t   *testing.T
	eng *Engine

	// settled is the oracle's count of the engine's settled ticks: one more
	// (up to settleTicks) after an exploit whose fresh panel was ruled out,
	// zero after any other model tick.
	settled int8

	scored   int // ticks whose posterior and decision were checked
	exploits int // of those, ticks the reference says exploit
	skipped  int // of those, ticks whose fresh panel the engine did not solve
	narrowed int // of those, ticks that scored a narrowed fresh panel
	ruled    int // of those, ticks that ruled out a neighbourhood block
	bounded  int // current blocks whose ceiling was held to the refit
	forced   int // ticks of a one-configuration space, which draw nothing
	failed   int // ticks whose model update failed, which explore one draw
}

// Decide is Engine.Decide, checked.
func (o *refitOracle) Decide(obs policy.Observation, current resource.Config) resource.Config {
	o.t.Helper()
	e := o.eng
	seeding, before, rng := len(e.initQueue) > 0, e.Stats(), *e.rng
	s := gp.TakeScratch()
	s.Points.Reset(0, 0) // emptied, so check can tell that Decide scored in s
	s.Release()          // the top of the list, which Decide takes next
	next := e.Decide(obs, current)
	after := e.Stats()
	switch {
	case e.single || seeding:
		// Nothing to decide, or the initial design: no draw.
		if *e.rng != rng || e.single && !next.Equal(e.equalSplit) {
			o.t.Fatalf("tick %d: a forced or seeding tick drew (%v) or left the equal split (%s)", obs.Tick, *e.rng != rng, next.Key())
		}
		if e.single {
			o.forced++
		}
	case after.FitFailures != before.FitFailures:
		// No model: the tick explores one pinned random configuration.
		want := e.space.NewConfig()
		plainRandomInto(&rng, e.space, want)
		e.pinUnmanaged(want)
		if *e.rng != rng || !next.Equal(want) {
			o.t.Fatalf("tick %d: a failed model update explored %s, the plain draw %s (streams equal: %v)", obs.Tick, next.Key(), want.Key(), *e.rng == rng)
		}
		o.settled = 0
		o.failed++
	default:
		o.check(s, obs.Tick, current, next, rng, after.FreshSkips != before.FreshSkips, after.NarrowTicks != before.NarrowTicks)
	}
	if e.settled != o.settled {
		o.t.Fatalf("tick %d: the engine's settled count is %d, the oracle's %d", obs.Tick, e.settled, o.settled)
	}
	return next
}

// ruledOut reports whether pool index i lies in a neighbourhood block that
// e's last scored tick ruled out (scorePool): its slots hold an earlier
// tick's values.
func ruledOut(e *Engine, i int) bool {
	lo := e.opt.Candidates
	for s, hi := range e.poolEnd[:e.poolTopN] {
		if lo <= i && i < hi {
			return e.ruledOut&(1<<s) != 0
		}
		lo = hi
	}
	return false
}

// unscored returns the pool indices [lo, hi) of the fresh candidates a tick
// drew but did not score: empty unless the tick was narrowed.
func unscored(e *Engine, narrowed bool) (lo, hi int) {
	if !narrowed {
		return e.opt.Candidates, e.opt.Candidates
	}
	r, w := e.freshPanel(true)
	return r + w, e.opt.Candidates
}

// check holds one tick, which scored its pool in s, against the refit. On a
// tick whose fresh panel the engine did not solve (skipped), each fresh σ
// slot holds the ceiling that ruled the candidate out, which must not be
// below the reference σ, and the engine's buffers no longer say what the
// argmax over them is, so the verdict alone is compared.
func (o *refitOracle) check(s *gp.PredictScratch, tick int, current, next resource.Config, rng stats.RNG, skipped, narrowed bool) {
	o.t.Helper()
	e := o.eng
	fresh, _ := unscored(e, narrowed)
	if e.acq == nil {
		fresh = e.candCount // Thompson sampling's pool, all of it as points
	}
	if s.Points.Len() != fresh {
		o.t.Fatalf("tick %d: the oracle's scratch holds %d points, not the tick's %d: Decide scored in another scratch",
			tick, s.Points.Len(), fresh)
	}
	settled := o.settled
	o.settled = 0
	if narrowed != (settled >= settleTicks) {
		o.t.Fatalf("tick %d: narrowed %v after %d settled ticks", tick, narrowed, settled)
	}
	w := e.LastWeights()
	var xs [][]float64
	var ys []float64
	best := math.Inf(-1)
	var bestCfg resource.Config
	window := e.recs.Window(e.opt.Window)
	for _, rec := range window {
		y := rec.Objective(w)
		xs, ys = append(xs, rec.Vector), append(ys, y)
		if y > best {
			best, bestCfg = y, rec.Config
		}
	}
	ref, err := gp.Fit(xs, ys, gp.Options{Noise: modelNoise})
	if err != nil {
		o.t.Fatalf("tick %d: reference fit on the engine's %d-record window: %v", tick, len(xs), err)
	}
	means := e.model.PredictMeansAtInto(nil)
	for i, slot := range e.recs.window(e.opt.Window) {
		row := e.recs.recs[slot].row
		if m, _ := ref.Predict(xs[i]); !(math.Abs(means[row]-m) <= 1e-9) {
			o.t.Fatalf("tick %d: window record %d (model row %d): engine mean %v, refit %v", tick, i, row, means[row], m)
		}
	}
	o.stream(s, tick, rng, bestCfg, narrowed, next)

	// The scored pool, compacted: pool[k] is pool index at[k]; the engine's
	// side leaves ruled-out blocks out (engPool).
	var pool, engPool []resource.Config
	var at, engAt []int // engPool[k] is pool[engAt[k]]
	var mu, sigma, engMu, engSigma []float64
	lo, hi := unscored(e, narrowed)
	muBuf, sigmaBuf := s.PoolPosterior(e.candCount)
	for i := 0; i < e.candCount; i++ {
		if lo <= i && i < hi {
			continue
		}
		c := e.candidate(&s.Points, i)
		m, sd := ref.Predict(e.space.Vector(c))
		pool, at = append(pool, c), append(at, i)
		mu, sigma = append(mu, m), append(sigma, sd)
		if ruledOut(e, i) {
			if score := e.acq.Score(m, sd, best); !(score < e.exploitBelow) {
				o.t.Fatalf("tick %d: candidate %d of %d (%s) lies in a ruled-out block, yet the refit (%v, %v) scores it %v, not below %v",
					tick, i, e.candCount, c.Key(), m, sd, score, e.exploitBelow)
			}
			continue
		}
		sigmaOK := math.Abs(sigmaBuf[i]-sd) <= 1e-9
		if skipped && i < e.opt.Candidates {
			sigmaOK = sigmaBuf[i] >= sd-1e-9
		}
		if !(math.Abs(muBuf[i]-m) <= 1e-9) || !sigmaOK {
			o.t.Fatalf("tick %d: candidate %d of %d (%s, fresh solve skipped: %v, narrowed: %v): engine posterior (%v, %v), refit (%v, %v)",
				tick, i, e.candCount, c.Key(), skipped, narrowed, muBuf[i], sigmaBuf[i], m, sd)
		}
		engPool, engAt = append(engPool, c), append(engAt, len(pool)-1)
		engMu, engSigma = append(engMu, muBuf[i]), append(engSigma, sigmaBuf[i])
	}
	blocks := e.candCount - e.opt.Candidates // the pool's tail
	o.bound(tick, ref, mu[len(mu)-blocks:], sigma[len(sigma)-blocks:])
	o.scored++
	if skipped {
		o.skipped++
	}
	if narrowed {
		o.narrowed++
	}
	if e.ruledOut != 0 {
		o.ruled++
	}
	if e.acq == nil {
		return // Thompson sampling decides by a random draw (stream), not an argmax
	}

	idx, score, err := bo.Argmax(e.acq, best, mu, sigma)
	if !skipped && (e.ruledOut == 0 || err == nil && score >= e.exploitBelow) {
		// The indices may differ where two pool entries hold one
		// configuration: a neighborhood block's moved fill rounds its last
		// bits apart from the same configuration drawn fresh. They may also
		// differ at a tie between symmetric candidates (two jobs of one
		// profile), which the refit scores equal to within rounding: the
		// engine's winner then stands. A winner that clears the exploit
		// threshold lies outside every ruled-out block.
		got, _, gotErr := bo.Argmax(e.acq, best, engMu, engSigma)
		switch {
		case (gotErr == nil) != (err == nil):
			o.t.Fatalf("tick %d: argmax over the engine's posterior failed: %v, over the refit's: %v", tick, gotErr, err)
		case err != nil || engPool[got].Equal(pool[idx]):
		case score-e.acq.Score(mu[engAt[got]], sigma[engAt[got]], best) <= 1e-12*math.Abs(score):
			idx = engAt[got]
		default:
			o.t.Fatalf("tick %d: argmax over the engine's posterior = %d (%s), over the refit's = %d (%s, score %v)",
				tick, at[engAt[got]], engPool[got].Key(), at[idx], pool[idx].Key(), score)
		}
	}
	verdict, want, cand := "probe", resource.Config{}, -1
	switch {
	case err != nil:
		verdict, want = "hold", current
	case score < e.exploitBelow:
		verdict, want = "exploit", bestCfg
		o.exploits++
		if skipped {
			o.settled = min(settled+1, settleTicks)
		}
	default:
		want, cand = pool[idx], at[idx]
	}
	if !next.Equal(want) {
		o.t.Fatalf("tick %d: refit says %s %s (candidate %d, score %v), engine decided %s",
			tick, verdict, want.Key(), cand, score, next.Key())
	}
}

// bound holds every neighbourhood block the tick left current to the
// refit: its ceiling (gp.BlockCeiling), which a later tick may rule the
// block out by, must be at or above the refit's mean and σ at each of its
// points. refMu and refSigma are the refit's posterior over the blocks'
// pool indices, the pool past every fresh slot; the store's blocks of
// records outside the top, which a later tick that meets them may rule out
// from their tails alone, are held to the refit at their neighbourhoods.
func (o *refitOracle) bound(tick int, refit *gp.GP, refMu, refSigma []float64) {
	o.t.Helper()
	e := o.eng
	lo := 0
	for s, rec := range e.poolTop[:e.poolTopN] {
		hi := e.poolEnd[s] - e.opt.Candidates
		for b := range e.blocks {
			blk := &e.blocks[b]
			if blk.rec != rec {
				continue
			}
			m, sd, ok := e.model.BlockCeiling(&blk.Block, hi-lo)
			if !ok {
				break
			}
			for i := lo; i < hi; i++ {
				if !(m >= refMu[i]-1e-9 && sd >= refSigma[i]-1e-9) {
					o.t.Fatalf("tick %d: block %d's ceiling (%v, %v) lies below the refit (%v, %v) at candidate %d",
						tick, s, m, sd, refMu[i], refSigma[i], e.opt.Candidates+i)
				}
			}
			o.bounded++
		}
		lo = hi
	}
	for b := range e.blocks {
		blk := &e.blocks[b]
		if blk.rec == (ref{}) || slices.Contains(e.poolTop[:e.poolTopN], blk.rec) ||
			int(blk.rec.slot) >= len(e.recs.recs) || e.recs.ref(blk.rec.slot) != blk.rec {
			continue // no record's, a top record's (above), or its record evicted
		}
		nb := appendManagedNeighbors(e, nil, e.recs.configOf(blk.rec.slot))
		m, sd, ok := e.model.BlockCeiling(&blk.Block, len(nb))
		if !ok {
			continue
		}
		for i, c := range nb {
			if rm, rs := refit.Predict(e.space.Vector(c)); !(m >= rm-1e-9 && sd >= rs-1e-9) {
				o.t.Fatalf("tick %d: the ceiling (%v, %v) of block %d, outside the top, lies below the refit (%v, %v) at neighbour %d (%s)",
					tick, m, sd, b, rm, rs, i, c.Key())
			}
		}
		o.bounded++
	}
}

// stream holds a scored tick's draws to the plain draw functions. From rng,
// the engine's generator as the tick found it, it rebuilds the tick's whole
// fresh panel one Intn at a time — Candidates/2 pinned random
// configurations (plainRandomInto), then walks of three steps from the
// incumbent (plainWalkInto) — and replays Thompson sampling's draw from the
// joint posterior over the pool s holds as points, which must pick the
// engine's decision. The scored fresh points in s must decode to the
// matching draws: all of them, or on a narrowed tick the first quarter of
// each half, random then walk. Its generator must end where the rebuild's
// does.
func (o *refitOracle) stream(s *gp.PredictScratch, tick int, rng stats.RNG, incumbent resource.Config, narrowed bool, next resource.Config) {
	o.t.Helper()
	e := o.eng
	randoms := e.opt.Candidates / 2
	full := make([]resource.Config, e.opt.Candidates)
	for i := range full {
		full[i] = e.space.NewConfig()
		if i < randoms {
			plainRandomInto(&rng, e.space, full[i])
			e.pinUnmanaged(full[i])
		} else {
			plainWalkInto(e, &rng, full[i], incumbent)
		}
	}
	if e.acq == nil {
		if s.Points.Len() != e.candCount {
			o.t.Fatalf("tick %d: Thompson sampling drew over %d points of a pool of %d", tick, s.Points.Len(), e.candCount)
		}
		if idx, err := bo.ThompsonSuggest(e.model, &rng, &s.Points); err == nil && !next.Equal(e.candidate(&s.Points, idx)) {
			o.t.Fatalf("tick %d: Thompson sampling replayed picks candidate %d, %s; the engine decided %s", tick, idx, e.candidate(&s.Points, idx).Key(), next.Key())
		}
	}
	keepR, keepW := e.freshPanel(narrowed)
	for slot := range keepR + keepW {
		j := slot
		if slot >= keepR {
			j = randoms + slot - keepR
		}
		if got := e.candidate(&s.Points, slot); !got.Equal(full[j]) {
			o.t.Fatalf("tick %d: fresh slot %d holds %s, plain draw %d %s (narrowed: %v)", tick, slot, got.Key(), j, full[j].Key(), narrowed)
		}
	}
	if *e.rng != rng {
		o.t.Fatalf("tick %d: the engine's generator ended elsewhere than the plain draws' (narrowed: %v)", tick, narrowed)
	}
}

// plainRandomInto is Space.RandomInto drawn one Intn at a time, the
// oracle's reference for the batched draws: per resource row, M−1 cut
// points by a partial Fisher–Yates over the positions 1…U−1, sorted, their
// gaps the composition.
func plainRandomInto(rng *stats.RNG, s *resource.Space, c resource.Config) {
	for r, res := range s.Resources {
		n, k := res.Units-1, s.Jobs-1
		pos := make([]int, n)
		for i := range pos {
			pos[i] = i + 1
		}
		for i := 0; i < k; i++ {
			j := i + rng.Intn(n-i)
			pos[i], pos[j] = pos[j], pos[i]
		}
		slices.Sort(pos[:k])
		prev := 0
		for i, cut := range pos[:k] {
			c.Alloc[r][i], prev = cut-prev, cut
		}
		c.Alloc[r][k] = res.Units - prev
	}
}

// plainWalkInto is a fresh walk from c drawn one Intn at a time: per step a
// managed row, a donor and a receiver, the move made when it is legal.
func plainWalkInto(e *Engine, rng *stats.RNG, dst, c resource.Config) {
	dst.CopyFrom(c)
	for range walkSteps {
		if len(e.managedRows) == 0 {
			return
		}
		r := e.managedRows[rng.Intn(len(e.managedRows))]
		from, to := rng.Intn(e.space.Jobs), rng.Intn(e.space.Jobs)
		e.space.MoveInPlace(dst, r, from, to)
	}
}

// driveChecked runs the engine under the oracle on the synthetic
// environment for n ticks; after, when not nil, runs after every Decide.
func driveChecked(t *testing.T, o *refitOracle, env *syntheticEnv, n int, after func(tick int)) {
	t.Helper()
	current := env.space.EqualSplit()
	for tick := 1; tick <= n; tick++ {
		tp, fair := env.eval(current)
		current = o.Decide(policy.Observation{
			Tick: tick, Time: float64(tick) * 0.1,
			Throughput: tp, Fairness: fair,
		}, current)
		if after != nil {
			after(tick)
		}
	}
}

// TestEngineMatchesRefitOracle: every scored tick of a noisy synthetic run
// — rank-1 appends, target-only re-solves, window evictions, explore and
// exploit verdicts, fresh panels solved, skipped and narrowed — agrees with
// the from-scratch model, over five seeds × Window {8, 64} × ExploitThreshold
// {default, 0.05, never} × Xi {0, 0.01}.
func TestEngineMatchesRefitOracle(t *testing.T) {
	var scored, exploits, skipped, narrowed, ruled, targetSolves, refits int
	for seed := uint64(9); seed < 14; seed++ {
		for _, window := range []int{8, 64} {
			for _, threshold := range []float64{0, 0.05, -1} {
				for _, xi := range []float64{0, 0.01} {
					env := newSyntheticEnv(0.01)
					eng, err := New(env.space, Options{Seed: seed, Window: window, ExploitThreshold: threshold, Xi: xi})
					if err != nil {
						t.Fatal(err)
					}
					oracle := &refitOracle{t: t, eng: eng}
					driveChecked(t, oracle, env, 150, nil)
					if oracle.scored < 100 {
						t.Fatalf("seed %d window %d threshold %v xi %v: %d ticks checked", seed, window, threshold, xi, oracle.scored)
					}
					st := eng.GPStats()
					scored, exploits, skipped = scored+oracle.scored, exploits+oracle.exploits, skipped+oracle.skipped
					narrowed, ruled = narrowed+oracle.narrowed, ruled+oracle.ruled
					targetSolves, refits = targetSolves+st.TargetSolves, refits+st.Refits
				}
			}
		}
	}
	if exploits == 0 || exploits == scored || skipped == 0 || skipped == scored || narrowed == 0 || narrowed == scored ||
		ruled == 0 || ruled == scored || targetSolves == 0 || refits < 2 {
		t.Fatalf("%d ticks checked, %d exploits, %d fresh solves skipped, %d narrowed, %d ruling out a block, %d target solves, %d refits: not every path was held against the oracle",
			scored, exploits, skipped, narrowed, ruled, targetSolves, refits)
	}
	t.Logf("%d ticks checked (%d exploits, %d fresh solves skipped, %d narrowed, %d ruling out a block), %d target solves, %d refits",
		scored, exploits, skipped, narrowed, ruled, targetSolves, refits)
}

// TestEngineMatchesRefitOracleOnSimulator drives the engine against the
// real simulator — the data whose floored variance heuristic lets most
// ticks take the target-only update and the cached neighborhood blocks —
// on two PARSEC mixes at a window that evicts early (16) and at the
// default (64), every scored tick under the oracle. One decision in five is
// held or overridden (applied).
func TestEngineMatchesRefitOracleOnSimulator(t *testing.T) {
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 200
	ruled := 0
	for _, mix := range mixes[:2] {
		for _, window := range []int{16, 64} {
			simulator, err := sim.New(sim.DefaultMachine(), mix.Profiles, sim.Options{Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(simulator.Space(), Options{Seed: 23, Window: window})
			if err != nil {
				t.Fatal(err)
			}
			oracle := &refitOracle{t: t, eng: eng}
			isolated := simulator.MeasureIsolated()
			current := simulator.Current()
			hold := stats.NewRNG(uint64(window + mix.Index))
			for tick := 1; tick <= ticks; tick++ {
				s := simulator.Step()
				next := oracle.Decide(policy.Observation{
					Tick: tick, Time: s.Time,
					Throughput: metrics.NormalizedThroughput(metrics.DefaultThroughput, s.IPS, isolated),
					Fairness:   metrics.NormalizedFairness(metrics.DefaultFairness, s.IPS, isolated),
				}, current)
				current = applied(hold, simulator.Space(), current, next)
				if err := simulator.Apply(current); err != nil {
					t.Fatalf("mix %d window %d tick %d: %v", mix.Index, window, tick, err)
				}
			}
			st := eng.GPStats()
			if oracle.scored < ticks-eng.opt.InitialSamples-eng.FitFailures() || st.TargetSolves == 0 ||
				oracle.skipped == 0 || oracle.skipped == oracle.scored {
				t.Fatalf("mix %d window %d: %d of %d ticks checked (%d fresh solves skipped), model updates %+v",
					mix.Index, window, oracle.scored, ticks, oracle.skipped, st)
			}
			t.Logf("mix %d window %d: %d ticks checked (%d exploits, %d fresh solves skipped, %d narrowed, %d ruling out a block), model updates %+v",
				mix.Index, window, oracle.scored, oracle.exploits, oracle.skipped, oracle.narrowed, oracle.ruled, st)
			ruled += oracle.ruled
		}
	}
	if ruled == 0 {
		t.Fatal("no tick ruled out a neighbourhood block: the ceiling was never held against the oracle")
	}
}

// applied returns the configuration a loop puts in force after the
// decision next, with current in force: next four times in five; otherwise,
// as Decide's current argument allows, current again (the loop held the
// tick) or a configuration drawn from space (one the engine did not
// choose, as an operator's). Either misleads the engine's keeping of K*
// (Engine.inWindow): a held probe's next tick meets the blocks it emptied
// under a standing kernel epoch, and an overridden exploit moves the epoch
// under blocks that kept K* and the shadows they left.
func applied(rng *stats.RNG, space *resource.Space, current, next resource.Config) resource.Config {
	switch rng.Intn(10) {
	case 0:
		return current
	case 1:
		return space.Random(rng)
	}
	return next
}

// TestEngineMatchesRefitOracleOnWideSimulator drives the engine under the
// oracle on 16 PARSEC jobs on a machine of 32 cores, 35 ways and 32
// bandwidth units: dimension 48, gp's walkDim, so every scored tick's walks
// are filled from the coordinates they moved. At a window of 16 it runs the
// default panel, 48 candidates (24 walks, more than the stack holds the
// lists of) and 80 candidates (40 random ones, so a panel holds both kinds)
// managing the cache ways only, and Thompson sampling managing the ways of
// the same jobs on 17 of them, whose one-donor neighbourhoods keep its joint
// posterior small.
func TestEngineMatchesRefitOracleOnWideSimulator(t *testing.T) {
	parsec := workloads.PARSEC()
	profiles := make([]*sim.Profile, 16)
	for i := range profiles {
		profiles[i] = parsec[i%len(parsec)]
	}
	machine := sim.DefaultMachine()
	machine.Cores, machine.LLCWays, machine.MemBWUnits = 32, 35, 32
	narrow := machine
	narrow.LLCWays = 17
	llc := []resource.Kind{resource.LLCWays}
	const ticks = 80
	for _, run := range []struct {
		machine sim.MachineSpec
		opt     Options
	}{
		{machine, Options{Seed: 31}},
		{machine, Options{Seed: 32, Candidates: 48}},
		{machine, Options{Seed: 33, Candidates: 80, Managed: llc}},
		{narrow, Options{Seed: 34, Acquisition: "ts", Managed: llc}},
	} {
		run.opt.Window = 16
		simulator, err := sim.New(run.machine, profiles, sim.Options{Seed: run.opt.Seed})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(simulator.Space(), run.opt)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &refitOracle{t: t, eng: eng}
		isolated := simulator.MeasureIsolated()
		current := simulator.Current()
		for tick := 1; tick <= ticks; tick++ {
			s := simulator.Step()
			current = oracle.Decide(policy.Observation{
				Tick: tick, Time: s.Time,
				Throughput: metrics.NormalizedThroughput(metrics.DefaultThroughput, s.IPS, isolated),
				Fairness:   metrics.NormalizedFairness(metrics.DefaultFairness, s.IPS, isolated),
			}, current)
			if err := simulator.Apply(current); err != nil {
				t.Fatalf("seed %d tick %d: %v", run.opt.Seed, tick, err)
			}
		}
		if oracle.scored < ticks-eng.opt.InitialSamples-eng.FitFailures() {
			t.Fatalf("seed %d: %d of %d ticks checked", run.opt.Seed, oracle.scored, ticks)
		}
		t.Logf("seed %d, %d candidates (%s), dimension %d, pool %d: %d ticks checked (%d exploits, %d fresh solves skipped, %d narrowed)",
			run.opt.Seed, eng.opt.Candidates, eng.Name(), simulator.Space().Dim(), eng.candCount, oracle.scored, oracle.exploits, oracle.skipped, oracle.narrowed)
	}
}

// driveRun counts what the random drives reached; each count must be
// non-zero.
type driveRun struct {
	engines, forced, failed, scored, exploits, skipped, narrowed, ruled int
	bounded, switches, swings, shifts, evictions, thompson              int
	basisBuilds, columnSolves                                           int
	stats                                                               Stats
}

// add folds one finished engine's oracle and counters into the run.
func (r *driveRun) add(o *refitOracle) {
	r.engines++
	r.forced, r.failed, r.scored = r.forced+o.forced, r.failed+o.failed, r.scored+o.scored
	r.exploits, r.skipped, r.narrowed, r.ruled = r.exploits+o.exploits, r.skipped+o.skipped, r.narrowed+o.narrowed, r.ruled+o.ruled
	r.bounded += o.bounded
	if o.eng.acq == nil {
		r.thompson += o.scored
	}
	r.stats = addStats(r.stats, o.eng.Stats(), 1)
	gs := o.eng.GPStats()
	r.basisBuilds, r.columnSolves = r.basisBuilds+gs.BasisBuilds, r.columnSolves+gs.ColumnSolves
}

// randomDrive is one seeded random operation sequence of ticks ticks: an
// engine, every Decide through a refitOracle, under
// operations drawn each tick —
//   - job churn: a new job set of one to five PARSEC jobs on the
//     simulator, or the two jobs of the synthetic landscape, so a rebuilt
//     engine under new options (acquisition, window, weight schedule,
//     managed kinds); one job is a forced space;
//   - goal switches: the throughput and fairness metrics the engine is fed
//     change, and an SLO violation comes or goes, so every record's goals
//     move as it is observed again;
//   - weight swings: one tick's throughput drops or jumps, which the
//     dynamic schedule answers by re-weighting;
//   - kernel-epoch rollovers: the landscape is rescaled, which lifts the
//     variance heuristic off its floor or puts it back, and the window
//     refits;
//   - window evictions: the record store shrinks below the window;
//   - a NaN observation, whose record fails every model update until the
//     window moves past it;
//   - a decision held or overridden, one in five (applied).
func randomDrive(t *testing.T, seed int64, ticks int, mixes []workloads.Mix, run *driveRun) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		space      *resource.Space
		observe    func(current resource.Config) (throughput, fairness float64)
		o          *refitOracle
		current    resource.Config
		tpMetric   = metrics.SumIPS
		fairMetric = metrics.JainIndex
		scale      = 1.0
		violating  bool
	)
	churn := func() {
		if o != nil {
			run.add(o)
		}
		if rng.Intn(4) == 0 {
			env := newSyntheticEnv(0.01)
			space, observe = env.space, env.eval
		} else {
			mix := mixes[rng.Intn(len(mixes))]
			simulator, err := sim.New(sim.DefaultMachine(), mix.Profiles[:1+rng.Intn(len(mix.Profiles))], sim.Options{Seed: rng.Uint64()})
			if err != nil {
				t.Fatal(err)
			}
			isolated := simulator.MeasureIsolated()
			space, observe = simulator.Space(), func(current resource.Config) (float64, float64) {
				if err := simulator.Apply(current); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				s := simulator.Step()
				return metrics.NormalizedThroughput(tpMetric, s.IPS, isolated), metrics.NormalizedFairness(fairMetric, s.IPS, isolated)
			}
		}
		opt := Options{Seed: rng.Uint64(), Window: []int{4, 8, 16, 64}[rng.Intn(4)]}
		switch k := rng.Intn(10); {
		case k < 2:
			opt.Acquisition = []string{"ucb", "pi", "ts"}[rng.Intn(3)]
		case k == 2:
			opt.ExploitThreshold = 0.002
		case k == 3:
			opt.Xi = 0.01
		}
		switch k := rng.Intn(8); {
		case k == 0:
			opt.Scheduler.Mode, opt.StaticWT = WeightsStatic, rng.Float64()
		case k == 1:
			opt.Scheduler.Mode = WeightsSLOAware
		case k == 2:
			opt.Scheduler.Mode = WeightsFavorStronger
		}
		if rng.Intn(6) == 0 {
			opt.Managed = []resource.Kind{space.Resources[rng.Intn(len(space.Resources))].Kind}
		}
		eng, err := New(space, opt)
		if err != nil {
			t.Fatal(err)
		}
		o = &refitOracle{t: t, eng: eng}
		current = space.EqualSplit()
	}
	churn()
	hold := stats.NewRNG(uint64(seed))
	for tick := 1; tick <= ticks; tick++ {
		swing := 1.0
		switch k := rng.Intn(200); {
		case k < 2:
			churn()
		case k < 5:
			tpMetric = []metrics.ThroughputMetric{metrics.SumIPS, metrics.GeoMeanSpeedup, metrics.HarmonicMeanSpeedup}[rng.Intn(3)]
			fairMetric = []metrics.FairnessMetric{metrics.JainIndex, metrics.OneMinusCoV}[rng.Intn(2)]
			violating = !violating
			run.switches++
		case k < 8:
			swing = []float64{0.5, 1.5}[rng.Intn(2)]
			run.swings++
		case k < 10:
			scale = []float64{0.3, 1, 2}[rng.Intn(3)]
			run.shifts++
		case k < 12:
			o.eng.Records().cap = 3 + rng.Intn(8)
			run.evictions++
		case k < 13 && o.eng.opt.Window <= 16:
			swing = math.NaN()
		}
		tp, fair := observe(current)
		next := o.Decide(policy.Observation{
			Tick: tick, Time: float64(tick) * 0.1, SLOViolating: violating,
			Throughput: swing * scale * tp, Fairness: scale * fair,
		}, current)
		current = applied(hold, space, current, next)
	}
	run.add(o)
}

// TestRandomDrivesMatchOracles runs seeded random operation sequences
// (randomDrive) with every tick under the refit oracle and its draw-stream
// check, and requires the drives between them to have reached every path
// the engine's shortcuts take: forced, failed, narrowed, skipped and
// ruled-out ticks, blocks whose ceiling was held to the refit, block hits,
// revivals (with and without a K* refill) and moved fills, goal-basis
// builds and column solves, refits, extends and target-only updates, and
// Thompson sampling's replayed draws.
func TestRandomDrivesMatchOracles(t *testing.T) {
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	var run driveRun
	for seed := int64(1); seed <= 16; seed++ {
		randomDrive(t, seed, 500, mixes, &run)
	}
	st := run.stats
	for _, c := range []int{run.forced, run.failed, run.scored, run.exploits, run.skipped, run.narrowed, run.ruled, run.thompson,
		run.bounded, run.switches, run.swings, run.shifts, run.evictions,
		st.BlockHits, st.BlockRevivals - st.BlockRefills, st.BlockRefills, st.BlockMisses, st.Refits, st.Extends, st.TargetSolves,
		run.basisBuilds, run.columnSolves} {
		if c == 0 {
			t.Fatalf("a path was never reached: %+v", run)
		}
	}
	t.Logf("%+v", run)
}
