package core

import (
	"math"
	"testing"

	"satori/internal/bo"
	"satori/internal/gp"
	"satori/internal/metrics"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/workloads"
)

// refitOracle holds an engine's every model-consulting tick against the
// textbook proxy model. After each Decide it fits gp.Fit from scratch on
// the engine's own window under that tick's weights, scores the engine's
// pool one candidate at a time with GP.Predict, and requires the engine's
// posterior to agree to 1e-9, the acquisition to pick the same pool index
// from either posterior, and the decision to be the one that index and
// score call for (hold on failure, exploit below the threshold, else probe).
// Being tick-local, it names the first tick and candidate that disagree,
// and a disagreement cannot hide behind a decision that happens to match.
// On a settled engine's narrowed tick the pool is the one the engine scored:
// its drawn but unscored fresh slots are left out of both sides. A
// neighbourhood block the engine ruled out by its ceiling is left out of the
// engine's side only: the refit must score every point of it below the
// exploit threshold, and the verdict is still taken over the whole pool.
type refitOracle struct {
	t   *testing.T
	eng *Engine

	scored   int // ticks whose posterior and decision were checked
	exploits int // of those, ticks the reference says exploit
	skipped  int // of those, ticks whose fresh panel the engine did not solve
	narrowed int // of those, ticks that scored a narrowed fresh panel
	ruled    int // of those, ticks that ruled out a neighbourhood block
}

// Decide is Engine.Decide, checked.
func (o *refitOracle) Decide(obs policy.Observation, current resource.Config) resource.Config {
	e := o.eng
	seeding, before := len(e.initQueue) > 0, e.Stats()
	next := e.Decide(obs, current)
	after := e.Stats()
	if seeding || after.FitFailures != before.FitFailures {
		return next // no model was consulted
	}
	o.t.Helper()
	o.check(obs.Tick, current, next, after.FreshSkips != before.FreshSkips, after.NarrowTicks != before.NarrowTicks)
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

// check holds one tick against the refit. On a tick whose fresh panel the
// engine did not solve (skipped), each fresh σ slot holds the ceiling that
// ruled the candidate out, which must not be below the reference σ, and
// the engine's buffers no longer say what the argmax over them is, so the
// verdict alone is compared.
func (o *refitOracle) check(tick int, current, next resource.Config, skipped, narrowed bool) {
	o.t.Helper()
	e := o.eng
	w := e.LastWeights()
	var xs [][]float64
	var ys []float64
	best := math.Inf(-1)
	var bestCfg resource.Config
	for _, rec := range e.recs.Window(e.opt.Window) {
		y := rec.Objective(w)
		xs, ys = append(xs, rec.Vector), append(ys, y)
		if y > best {
			best, bestCfg = y, rec.Config
		}
	}
	ref, err := gp.Fit(xs, ys, gp.Options{Noise: e.opt.Noise})
	if err != nil {
		o.t.Fatalf("tick %d: reference fit on the engine's %d-record window: %v", tick, len(xs), err)
	}

	// The scored pool, compacted: pool[k] is pool index at[k]; the engine's
	// side leaves ruled-out blocks out (engPool).
	var pool, engPool []resource.Config
	var at []int
	var mu, sigma, engMu, engSigma []float64
	lo, hi := unscored(e, narrowed)
	muBuf, sigmaBuf := e.posterior()
	for i := 0; i < e.candCount; i++ {
		if lo <= i && i < hi {
			continue
		}
		c := e.candidate(i)
		m, s := ref.Predict(e.space.Vector(c))
		pool, at = append(pool, c), append(at, i)
		mu, sigma = append(mu, m), append(sigma, s)
		if ruledOut(e, i) {
			if score := e.acq.Score(m, s, best); !(score < e.exploitBelow) {
				o.t.Fatalf("tick %d: candidate %d of %d (%s) lies in a ruled-out block, yet the refit (%v, %v) scores it %v, not below %v",
					tick, i, e.candCount, c.Key(), m, s, score, e.exploitBelow)
			}
			continue
		}
		sigmaOK := math.Abs(sigmaBuf[i]-s) <= 1e-9
		if skipped && i < e.opt.Candidates {
			sigmaOK = sigmaBuf[i] >= s-1e-9
		}
		if math.Abs(muBuf[i]-m) > 1e-9 || !sigmaOK {
			o.t.Fatalf("tick %d: candidate %d of %d (%s, fresh solve skipped: %v, narrowed: %v): engine posterior (%v, %v), refit (%v, %v)",
				tick, i, e.candCount, c.Key(), skipped, narrowed, muBuf[i], sigmaBuf[i], m, s)
		}
		engPool = append(engPool, c)
		engMu, engSigma = append(engMu, muBuf[i]), append(engSigma, sigmaBuf[i])
	}
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
		return // Thompson sampling decides by a random draw, not an argmax
	}

	idx, score, err := bo.Argmax(e.acq, best, mu, sigma)
	if !skipped && (e.ruledOut == 0 || err == nil && score >= e.exploitBelow) {
		// The indices may differ where two pool entries hold one
		// configuration: a neighborhood block's moved fill rounds its last
		// bits apart from the same configuration drawn fresh. A winner that
		// clears the exploit threshold lies outside every ruled-out block.
		got, _, gotErr := bo.Argmax(e.acq, best, engMu, engSigma)
		if (gotErr == nil) != (err == nil) || err == nil && !engPool[got].Equal(pool[idx]) {
			o.t.Fatalf("tick %d: argmax over the engine's posterior = %d (%v), over the refit's = %d (%v)", tick, got, gotErr, idx, err)
		}
	}
	verdict, want, cand := "probe", resource.Config{}, -1
	switch {
	case err != nil:
		verdict, want = "hold", current
	case score < e.exploitBelow:
		verdict, want = "exploit", bestCfg
		o.exploits++
	default:
		want, cand = pool[idx], at[idx]
	}
	if !next.Equal(want) {
		o.t.Fatalf("tick %d: refit says %s %s (candidate %d, score %v), engine decided %s",
			tick, verdict, want.Key(), cand, score, next.Key())
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
// default (64), every scored tick under the oracle.
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
			for tick := 1; tick <= ticks; tick++ {
				s := simulator.Step()
				current = oracle.Decide(policy.Observation{
					Tick: tick, Time: s.Time,
					Throughput: metrics.NormalizedThroughput(metrics.DefaultThroughput, s.IPS, isolated),
					Fairness:   metrics.NormalizedFairness(metrics.DefaultFairness, s.IPS, isolated),
				}, current)
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
