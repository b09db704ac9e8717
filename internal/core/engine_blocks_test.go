package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"satori/internal/gp"
)

// movedBound is how far a neighborhood block's moved fill may sit from the
// dense fill of the same points, relative to the larger value (σ to within
// an absolute movedBound·√k(x, x) as well): the two sum a neighbor's
// squared distances in different orders, so their last bits differ.
const movedBound = 1e-12

// withinMoved reports whether a moved-fill value got is within movedBound of
// the dense fill's want; scale is the absolute floor.
func withinMoved(got, want, scale float64) bool {
	return math.Abs(got-want) <= movedBound*max(math.Abs(got), math.Abs(want), scale)
}

// blockProbe watches an engine between Decide calls: it holds
// the block-scored pool against a stateless whole-pool scoring, and counts
// the situations the block cache must survive.
type blockProbe struct {
	t   *testing.T
	eng *Engine

	prevTop    []*Record
	prevEpoch  int
	prevSkips  int
	prevNarrow int
	slotRecs   map[string]*Record // every record a slot has held, by config key

	scored    int // ticks whose pool was checked
	skipped   int // of those, ticks whose fresh panel the engine did not solve
	flips     int // ticks whose top set kept its members and factor but changed order
	recreated int // slots taken by a re-created record of a config a slot held before
	revivals  int // blocks the engine revived from a shadow (Stats().BlockRevivals)
	ruled     int // blocks the engine ruled out, each held to its ceiling
}

func newBlockProbe(t *testing.T, eng *Engine) *blockProbe {
	return &blockProbe{t: t, eng: eng, slotRecs: map[string]*Record{}}
}

// top recomputes the engine's top configurations (descending objective,
// earlier window entries first among ties) for the last Decide.
func (p *blockProbe) top() []*Record {
	e := p.eng
	window := e.recs.Window(e.opt.Window)
	w := e.LastWeights()
	sort.SliceStable(window, func(i, j int) bool { return window[i].Objective(w) > window[j].Objective(w) })
	return window[:min(3, len(window))]
}

// check runs after a Decide at tick. The fresh candidates must equal a
// stateless dense scoring bit for bit, the blocks a stateless moved fill of
// the same neighborhoods, and the dense scoring within movedBound. On a
// tick whose fresh panel the engine did not solve, each fresh σ slot holds
// a ceiling, which must not be below the σ a stateless scoring computes. A
// block the engine ruled out was not re-scored: its slot's ceiling must
// hold every μ and σ of the stateless moved fill, compared exactly.
func (p *blockProbe) check(tick int) {
	e := p.eng
	skipped, narrowed := e.freshSkips != p.prevSkips, e.narrowTicks != p.prevNarrow
	p.prevSkips, p.prevNarrow = e.freshSkips, e.narrowTicks
	if e.model.Len() == 0 || len(e.initQueue) > 0 || e.candCount == 0 {
		return
	}
	n := e.candCount
	pool := make([][]float64, n)
	for i := range pool {
		pool[i] = e.space.Vector(e.candidate(i))
	}
	mu, sigma := make([]float64, n), make([]float64, n)
	e.model.PredictBatchInto(&gp.PredictScratch{}, mu, sigma, pool)
	movedMu, movedSigma := make([]float64, n), make([]float64, n)
	start := e.opt.Candidates
	for s, rec := range e.poolTop[:e.poolTopN] {
		mv := e.neighborMoves(rec)
		e.model.PredictMovedBlockInto(&gp.PredictScratch{}, &gp.Block{}, movedMu[start:e.poolEnd[s]], movedSigma[start:e.poolEnd[s]], &mv)
		start = e.poolEnd[s]
	}
	lo, hi := unscored(e, narrowed)
	muBuf, sigmaBuf := e.posterior()
	prior := e.model.PriorSigma()
	start = e.opt.Candidates
	for s, rec := range e.poolTop[:e.poolTopN] {
		if e.ruledOut&(1<<s) != 0 {
			p.ruled++
			muMax, sigmaMax, ok := e.model.BlockCeiling(&e.blockFor(rec, e.poolTop[:e.poolTopN]).Block, e.poolEnd[s]-start)
			for i := start; i < e.poolEnd[s]; i++ {
				if !ok || movedMu[i] > muMax || movedSigma[i] > sigmaMax {
					p.t.Fatalf("tick %d: candidate %d of ruled-out block %d: stateless moved fill (%v, %v), ceiling (%v, %v, %v)",
						tick, i, s, movedMu[i], movedSigma[i], muMax, sigmaMax, ok)
				}
			}
		}
		start = e.poolEnd[s]
	}
	for i := 0; i < n; i++ {
		if lo <= i && i < hi || ruledOut(e, i) {
			continue
		}
		if i >= e.opt.Candidates {
			if muBuf[i] != movedMu[i] || sigmaBuf[i] != movedSigma[i] {
				p.t.Fatalf("tick %d: candidate %d of %d: block-scored (%v, %v) != stateless moved fill (%v, %v)",
					tick, i, n, muBuf[i], sigmaBuf[i], movedMu[i], movedSigma[i])
			}
			if !withinMoved(muBuf[i], mu[i], 0) || !withinMoved(sigmaBuf[i], sigma[i], prior) {
				p.t.Fatalf("tick %d: candidate %d of %d: block-scored (%v, %v), stateless dense (%v, %v): beyond %g",
					tick, i, n, muBuf[i], sigmaBuf[i], mu[i], sigma[i], movedBound)
			}
			continue
		}
		sigmaOK := sigmaBuf[i] == sigma[i]
		if skipped {
			sigmaOK = sigmaBuf[i] >= sigma[i]
		}
		if muBuf[i] != mu[i] || !sigmaOK {
			p.t.Fatalf("tick %d: candidate %d of %d (fresh solve skipped: %v): block-scored (%v, %v) != stateless (%v, %v)",
				tick, i, n, skipped, muBuf[i], sigmaBuf[i], mu[i], sigma[i])
		}
	}
	p.scored++
	if skipped {
		p.skipped++
	}

	top := p.top()
	st := e.GPStats()
	epoch := st.Refits + st.Extends
	if epoch == p.prevEpoch && len(top) == len(p.prevTop) {
		same, moved := true, false
		for i, rec := range top {
			same = same && slices.Contains(p.prevTop, rec)
			moved = moved || p.prevTop[i] != rec
		}
		if same && moved {
			p.flips++
		}
	}
	p.prevTop, p.prevEpoch = top, epoch

	for i := range e.blocks {
		rec := e.blocks[i].rec
		if rec == nil {
			continue
		}
		if old, ok := p.slotRecs[rec.Key]; ok && old != rec {
			p.recreated++
		}
		p.slotRecs[rec.Key] = rec
	}
}

// probed drives an engine for 400 ticks with every Decide held against the
// refitOracle and its pool against the blockProbe, and returns the probe.
// recordCap > 0 shrinks the record store. A block revived from its shadow
// is held to a stateless moved fill like every other block; the callers
// require some to have been.
func probed(t *testing.T, opt Options, recordCap int) *blockProbe {
	t.Helper()
	env := newSyntheticEnv(0.02)
	eng, err := New(env.space, opt)
	if err != nil {
		t.Fatal(err)
	}
	if recordCap > 0 {
		eng.Records().cap = recordCap
	}
	probe := newBlockProbe(t, eng)
	oracle := &refitOracle{t: t, eng: eng}
	driveChecked(t, oracle, env, 400, probe.check)
	if oracle.scored != probe.scored || oracle.skipped != probe.skipped {
		t.Fatalf("oracle checked %d ticks (%d fresh solves skipped), block probe %d (%d)", oracle.scored, oracle.skipped, probe.scored, probe.skipped)
	}
	if probe.skipped == 0 || probe.skipped == probe.scored {
		t.Fatalf("%d of %d ticks skipped the fresh solve: both kinds must occur", probe.skipped, probe.scored)
	}
	probe.revivals = eng.Stats().BlockRevivals
	return probe
}

// TestEngineBlockReuseUnderSwingingWeights runs the default (dynamic)
// weight schedule, whose swings reorder the top configurations while the
// window — and so the factor — stands still. Reordered neighborhoods are
// re-scored from blocks filled at other pool offsets, and a record that
// drops out of the top configurations and comes back is revived from its
// shadow, so every tick's pool must still equal a stateless scoring bit for
// bit, and the refit oracle's posterior and decision tick for tick. Seeds
// 13–17 between them must reorder and revive.
func TestEngineBlockReuseUnderSwingingWeights(t *testing.T) {
	scored, skipped, flips, revivals, ruled := 0, 0, 0, 0, 0
	for seed := uint64(13); seed <= 17; seed++ {
		probe := probed(t, Options{Seed: seed, Window: 12}, 0)
		scored, skipped, flips, revivals = scored+probe.scored, skipped+probe.skipped, flips+probe.flips, revivals+probe.revivals
		ruled += probe.ruled
	}
	if scored == 0 || flips == 0 || revivals == 0 || ruled == 0 {
		t.Fatalf("%d pools checked, %d top-order flips under a standing factor, %d blocks revived, %d ruled out: reordered reuse, revival or the ceiling not exercised", scored, flips, revivals, ruled)
	}
	t.Logf("%d pools checked (%d fresh solves skipped), %d top-order flips under a standing factor, %d blocks revived, %d ruled out", scored, skipped, flips, revivals, ruled)
}

// TestEngineBlockKeySurvivesEviction shrinks the record store until top
// configurations are evicted and later re-created as new records. A block
// keyed by anything recyclable (a config key, a window index, a reused
// address) would be taken for the old record's; keyed by the record it
// must miss, keeping pools equal to the stateless scoring and to the refit
// oracle's.
func TestEngineBlockKeySurvivesEviction(t *testing.T) {
	probe := probed(t, Options{Seed: 17, Window: 8, ExploitThreshold: 0.002}, 5)
	if probe.scored == 0 || probe.recreated == 0 || probe.revivals == 0 {
		t.Fatalf("%d pools checked, %d re-created top configurations, %d blocks revived: eviction or revival path not exercised", probe.scored, probe.recreated, probe.revivals)
	}
	t.Logf("%d pools checked (%d fresh solves skipped), %d re-created top configurations, %d blocks revived", probe.scored, probe.skipped, probe.recreated, probe.revivals)
}
