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
}

// Decide is Engine.Decide, checked.
func (o *refitOracle) Decide(obs policy.Observation, current resource.Config) resource.Config {
	e := o.eng
	seeding, fitFailures := len(e.initQueue) > 0, e.fitFailures
	next := e.Decide(obs, current)
	if seeding || e.fitFailures != fitFailures {
		return next // no model was consulted
	}
	o.t.Helper()
	o.check(obs.Tick, current, next)
	return next
}

func (o *refitOracle) check(tick int, current, next resource.Config) {
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
		if math.Abs(e.muBuf[i]-mu[i]) > 1e-9 || math.Abs(e.sigmaBuf[i]-sigma[i]) > 1e-9 {
			o.t.Fatalf("tick %d: candidate %d of %d (%s): engine posterior (%v, %v), refit (%v, %v)",
				tick, i, len(pool), c.Key(), e.muBuf[i], e.sigmaBuf[i], mu[i], sigma[i])
		}
	}
	o.scored++
	if e.acq == nil {
		return // Thompson sampling decides by a random draw, not an argmax
	}

	idx, score, err := bo.Argmax(e.acq, best, mu, sigma)
	if got, _, gotErr := bo.Argmax(e.acq, best, e.muBuf[:len(pool)], e.sigmaBuf[:len(pool)]); got != idx || (gotErr == nil) != (err == nil) {
		o.t.Fatalf("tick %d: argmax over the engine's posterior = %d (%v), over the refit's = %d (%v)", tick, got, gotErr, idx, err)
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
// exploit verdicts — agrees with the from-scratch model.
func TestEngineMatchesRefitOracle(t *testing.T) {
	env := newSyntheticEnv(0.01)
	eng, err := New(env.space, Options{Seed: 9, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	oracle := &refitOracle{t: t, eng: eng}
	driveChecked(t, oracle, env, 250, nil)
	st := eng.GPStats()
	if oracle.scored < 200 || oracle.exploits == 0 || oracle.exploits == oracle.scored || st.TargetSolves == 0 || st.Refits < 2 {
		t.Fatalf("%d ticks checked, %d exploits, model updates %+v: not every path was held against the oracle", oracle.scored, oracle.exploits, st)
	}
	t.Logf("%d ticks checked (%d exploits), model updates %+v", oracle.scored, oracle.exploits, st)
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
			if oracle.scored < ticks-eng.opt.InitialSamples-eng.FitFailures() || st.TargetSolves == 0 {
				t.Fatalf("mix %d window %d: %d of %d ticks checked, model updates %+v", mix.Index, window, oracle.scored, ticks, st)
			}
			t.Logf("mix %d window %d: %d ticks checked (%d exploits), model updates %+v",
				mix.Index, window, oracle.scored, oracle.exploits, st)
		}
	}
}
