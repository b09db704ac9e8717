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
type refitOracle struct {
	t   *testing.T
	eng *Engine

	scored   int // ticks whose posterior and decision were checked
	exploits int // of those, ticks the reference says exploit
	skipped  int // of those, ticks whose fresh panel the engine did not solve
}

// Decide is Engine.Decide, checked.
func (o *refitOracle) Decide(obs policy.Observation, current resource.Config) resource.Config {
	e := o.eng
	seeding, fitFailures, freshSkips := len(e.initQueue) > 0, e.fitFailures, e.freshSkips
	next := e.Decide(obs, current)
	if seeding || e.fitFailures != fitFailures {
		return next // no model was consulted
	}
	o.t.Helper()
	o.check(obs.Tick, current, next, e.freshSkips != freshSkips)
	return next
}

// check holds one tick against the refit. On a tick whose fresh panel the
// engine did not solve (skipped), each fresh σ slot holds the ceiling that
// ruled the candidate out, which must not be below the reference σ, and
// the engine's buffers no longer say what the argmax over them is, so the
// verdict alone is compared.
func (o *refitOracle) check(tick int, current, next resource.Config, skipped bool) {
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

	pool := make([]resource.Config, e.candCount)
	mu, sigma := make([]float64, len(pool)), make([]float64, len(pool))
	for i := range pool {
		c := e.candidate(i)
		pool[i] = c
		mu[i], sigma[i] = ref.Predict(e.space.Vector(c))
		sigmaOK := math.Abs(e.sigmaBuf[i]-sigma[i]) <= 1e-9
		if skipped && i < e.opt.Candidates {
			sigmaOK = e.sigmaBuf[i] >= sigma[i]-1e-9
		}
		if math.Abs(e.muBuf[i]-mu[i]) > 1e-9 || !sigmaOK {
			o.t.Fatalf("tick %d: candidate %d of %d (%s, fresh solve skipped: %v): engine posterior (%v, %v), refit (%v, %v)",
				tick, i, len(pool), c.Key(), skipped, e.muBuf[i], e.sigmaBuf[i], mu[i], sigma[i])
		}
	}
	o.scored++
	if skipped {
		o.skipped++
	}
	if e.acq == nil {
		return // Thompson sampling decides by a random draw, not an argmax
	}

	idx, score, err := bo.Argmax(e.acq, best, mu, sigma)
	if !skipped {
		if got, _, gotErr := bo.Argmax(e.acq, best, e.muBuf[:len(pool)], e.sigmaBuf[:len(pool)]); got != idx || (gotErr == nil) != (err == nil) {
			o.t.Fatalf("tick %d: argmax over the engine's posterior = %d (%v), over the refit's = %d (%v)", tick, got, gotErr, idx, err)
		}
	}
	verdict, want := "probe", resource.Config{}
	switch {
	case err != nil:
		verdict, want = "hold", current
	case score < e.exploitBelow:
		verdict, want = "exploit", bestCfg
		o.exploits++
	default:
		want = pool[idx]
	}
	if !next.Equal(want) {
		o.t.Fatalf("tick %d: refit says %s %s (candidate %d, score %v), engine decided %s",
			tick, verdict, want.Key(), idx, score, next.Key())
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
// exploit verdicts, fresh panels solved and skipped — agrees with the
// from-scratch model, over five seeds × Window {8, 64} × ExploitThreshold
// {default, 0.05, never} × Xi {0, 0.01}.
func TestEngineMatchesRefitOracle(t *testing.T) {
	var scored, exploits, skipped, targetSolves, refits int
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
					targetSolves, refits = targetSolves+st.TargetSolves, refits+st.Refits
				}
			}
		}
	}
	if exploits == 0 || exploits == scored || skipped == 0 || skipped == scored || targetSolves == 0 || refits < 2 {
		t.Fatalf("%d ticks checked, %d exploits, %d fresh solves skipped, %d target solves, %d refits: not every path was held against the oracle",
			scored, exploits, skipped, targetSolves, refits)
	}
	t.Logf("%d ticks checked (%d exploits, %d fresh solves skipped), %d target solves, %d refits", scored, exploits, skipped, targetSolves, refits)
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
			t.Logf("mix %d window %d: %d ticks checked (%d exploits, %d fresh solves skipped), model updates %+v",
				mix.Index, window, oracle.scored, oracle.exploits, oracle.skipped, st)
		}
	}
}
