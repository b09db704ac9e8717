package core

import (
	"fmt"
	"math"
	"slices"

	"satori/internal/bo"
	"satori/internal/gp"
	"satori/internal/policy"
	"satori/internal/resource"
	"satori/internal/stats"
)

// Options configures an Engine.
type Options struct {
	// Seed drives candidate sampling; equal seeds replay identically.
	Seed uint64
	// Scheduler configures the goal-weight dynamics (Sec. III-C).
	Scheduler SchedulerOptions
	// StaticWT is the throughput weight WeightsStatic pins (0 is honored:
	// Fairness SATORI); other modes ignore it.
	StaticWT float64
	// Window caps how many most-recent distinct configurations the
	// proxy model is fitted on (default 64). A bounded window keeps
	// the 100 ms iteration cheap and lets the model track phase
	// changes.
	Window int
	// Candidates is the number of random and random-walk configurations
	// scored by the acquisition function each tick (default 32), in
	// addition to the one-unit neighborhoods of the top-3 records.
	Candidates int
	// InitialSamples is the size of the S_init seeding set: the equal
	// split plus low-imbalance perturbations (default 8, Sec. V notes
	// seeding with "good" configurations instead of random ones).
	InitialSamples int
	// Xi is the Expected Improvement exploration margin (default 0).
	Xi float64
	// Acquisition selects the acquisition function: "ei" (default, the
	// paper's choice), "ucb", "pi", or "ts" (Thompson sampling). The
	// ExploitThreshold optimization only applies to "ei", whose score
	// is an expected improvement; the alternatives probe every tick —
	// the acquisition ablation quantifies what that costs.
	Acquisition string
	// ExploitThreshold stops exploration when the best candidate's
	// Expected Improvement falls below it: the engine then re-installs
	// the incumbent best configuration instead of probing further —
	// the paper's "avoid frequent updates after the optimal
	// configuration detection" optimization (Sec. V overhead
	// discussion). Default 0.012 on the [0,1] objective scale.
	ExploitThreshold float64
	// RandomInit seeds the engine with uniformly random configurations
	// instead of the low-imbalance S_init — the initial-design
	// sensitivity ablation of Sec. V (the paper reports 1-3% final
	// quality variation from bad starts).
	RandomInit bool
	// Managed restricts which resource kinds SATORI actually
	// partitions; unmanaged resources stay at the equal split. nil
	// manages everything. Used for the Sec. V source-of-benefit
	// ablation (SATORI on LLC only vs dCAT; LLC+MBW vs CoPart).
	Managed []resource.Kind
	// Name overrides the policy name in reports.
	Name string
}

// modelNoise is the GP observation-noise variance on the [0,1]-scaled
// objective, absorbing ~2-3% IPS counter noise.
const modelNoise = 1e-3

func (o *Options) fill() {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.Candidates <= 0 {
		o.Candidates = 32
	}
	if o.InitialSamples <= 0 {
		o.InitialSamples = 8
	}
	if o.ExploitThreshold == 0 {
		o.ExploitThreshold = 0.012
	}
	if o.ExploitThreshold < 0 {
		o.ExploitThreshold = 0 // explicit "never exploit" request
	}
}

// Engine is the SATORI BO engine of Algorithm 1, usable as a
// policy.Policy.
type Engine struct {
	space *resource.Space
	opt   Options
	rng   *stats.RNG
	sched *Scheduler
	recs  *Records
	// acq is Options.Acquisition resolved once by New; nil is Thompson
	// sampling, which draws from the joint posterior instead of scoring.
	// exploitBelow is the acquisition score under which the engine holds
	// the incumbent: Options.ExploitThreshold for EI, -Inf (never) for the
	// alternatives, whose scores are not expected improvements.
	acq          bo.Acquisition
	exploitBelow float64

	initQueue   []resource.Config
	managedRows []int // indices of managed rows, ascending
	// enc[r][u] is VectorInto's encoding of u units of resource row r,
	// u/Units, for every u from 0 to Units, built by the first model tick
	// (buildTables): the model's inputs, the fresh candidates, the
	// neighbourhoods and their move tables look their coordinates up, and a
	// fresh winner is decoded through it (decode). work is the configuration
	// buildPool draws each fresh candidate into before it encodes it; out is
	// the configuration an exploit returns, the incumbent's written into it.
	enc        [][]float64
	work, out  resource.Config
	equalSplit resource.Config
	// single is set by New when the managed space holds exactly one
	// configuration (the equal split): every Decide is then forced, and the
	// engine carries no initial design, proxy model or candidate pool.
	single bool
	// settled counts the consecutive ticks settle ended at exploit with the
	// fresh panel ruled out (t.freshSkipped), saturating at settleTicks; at
	// settleTicks buildPool narrows the scored fresh panel. ruledOut has bit
	// s set when the last scored tick ruled out poolTop[s]'s block
	// (scorePool), whose pool slots then hold an earlier tick's values. Both
	// share single's word.
	settled  int8
	ruledOut uint8

	// Diagnostics, each written by exactly one stage of Decide; the
	// counters are Stats' fields of the same names. They are fields, not a
	// Stats value, so the struct that every engine pays for, forced ones
	// included, stays in its 768-byte size class.
	lastWeights   Weights // scheduleWeights
	lastObj       float64 // scheduleWeights
	forcedTicks   int     // forced
	seedTicks     int     // seed
	modelTicks    int     // syncModel
	appendRefits  int     // syncModel
	fitFailures   int     // syncModel
	sweep         int     // trackProxyChange: sweeps run so far
	proxyChange   float64 // trackProxyChange
	blockHits     int     // scorePool
	blockRevivals int     // scorePool: blocks re-scored from their tail, K* handed back
	blockRefills  int     // scorePool: of those, blocks whose K* was refilled
	blockMisses   int     // scorePool
	blocksOut     int     // scorePool: BlocksRuledOut, blocks ruled out by their ceiling
	freshSkips    int     // scorePool: ticks whose fresh panel was not solved
	blockCandsOut int     // scorePool: candidates of the blocks ruled out
	freshCandsOut int     // scorePool: fresh candidates ruled out by their σ ceilings
	candsScored   int     // scorePool: candidates scored
	narrowTicks   int     // buildPool: ticks that scored a narrowed fresh panel
	acqFailures   int     // settle
	exploits      int     // settle

	// The proxy model: row i conditions on the record in slot modelRecs[i]
	// (its row is the inverse), so per-tick target reconstruction can feed
	// UpdateGoals/Append in model order. A slot's row is −1 from the
	// record's birth until the model takes it in, so a record born in an
	// evicted row's slot is no row.
	model     *gp.Incremental
	modelRecs []int32

	// The candidate pool (buildPool): the Candidates random and random-walk
	// configurations, kept only as their points in the tick's scratch, and
	// after them the one-unit neighborhoods of poolTop[:poolTopN],
	// described, not built — poolEnd[i] is the pool index one past
	// poolTop[i]'s neighborhood, and poolPoints and candidate decode an
	// index into its move. candCount is the pool's size.
	poolTop   [3]ref
	poolEnd   [3]int
	poolTopN  int
	candCount int

	// Per-tick buffers, reused across Decide calls. The scoring scratch —
	// the fill's and the solve's panels, the fresh candidates laid out as
	// points and the pool's posterior — is not among them: a tick borrows it
	// (tick.scratch), so an engine between ticks holds none.
	rowBuf []float64 // goals or targets per model row (syncModel), then means (trackProxyChange); then a missed block's move tables (neighborMoves) or a neighbourhood's base point (neighborPoints)
	// The scored neighbourhoods, blockSlots of them keyed by record, most
	// recently met first (blockFor), allocated by the first scored tick. A
	// block keeps its K* only for a tick that can read it (keepBlocks).
	blocks []neighborBlock
}

// neighborBlock is the scored one-unit neighborhood of a recorded
// configuration. The neighborhood is a function of the record's (fixed)
// configuration, so while the block keeps its record its kernel-only part
// is reusable for as long as the model says so. It is keyed by the record's
// ref — its store slot and birth stamp, not its key or window position — so
// a configuration evicted and recorded again, or another born in its store
// slot, can never be mistaken for it.
type neighborBlock struct {
	rec ref
	gp.Block
}

// A block outlives its record's turn in the top configurations: the store
// holds one block per top configuration and blockSlots − 3 more, of records
// that left the top. A record that comes back while the model's kernel
// epoch stands is re-scored from its block's tail without a triangular
// solve (gp.ReviveMovedBlockInto).
const blockSlots = 3 + 8

// tick is the state one Decide call threads through its stages.
type tick struct {
	obs     policy.Observation
	current resource.Config
	w       Weights // this tick's goal weights

	window    []int32 // the most recent records' slots, a prefix of the store's order: the proxy model's inputs
	best      float64 // highest window objective under w
	incumbent int32   // the slot of the record that reached it
	top       [3]ref  // best topN window records, descending objective
	topN      int

	// The proxy model's posterior over the pool, in the scratch's slots
	// (gp.PredictScratch.PoolPosterior).
	mu, sigma []float64
	// fresh is how many fresh candidates the tick scores: all
	// Options.Candidates, or the narrowed panel of a settled engine, which
	// buildPool lays out first (pool indices [fresh, Candidates) are then
	// drawn but not built: no point or posterior slot holds them).
	fresh int

	// The acquisition's argmax over the neighbourhood blocks, as a
	// block-relative index (scorePool; not for Thompson sampling).
	blockIdx   int
	blockScore float64
	blockErr   error
	// freshSkipped: no fresh candidate could win, so their σ were bounded,
	// not solved for, and the block winner is the tick's (scorePool).
	freshSkipped bool

	// scratch is the workspace the tick borrows from the list every engine
	// shares (gp.TakeScratch) before it updates its model, which uses it
	// too, and returns once it has settled: it holds the fresh candidates'
	// points and the pool's posterior, which settle decodes the winner
	// from. A forced or seeding tick takes none.
	scratch *gp.PredictScratch
}

// New builds a SATORI engine over space.
func New(space *resource.Space, opt Options) (*Engine, error) {
	opt.fill()
	sched := NewScheduler(opt.Scheduler)
	if opt.Scheduler.Mode == WeightsStatic {
		sched.pin(opt.StaticWT)
	}
	e := &Engine{
		space:        space,
		opt:          opt,
		rng:          stats.NewRNG(opt.Seed ^ 0x5A7031),
		sched:        sched,
		recs:         NewRecords(),
		equalSplit:   space.EqualSplit(),
		exploitBelow: math.Inf(-1),
	}
	switch opt.Acquisition {
	case "", "ei":
		e.acq, e.exploitBelow = bo.EI{Xi: opt.Xi}, opt.ExploitThreshold
	case "ucb":
		e.acq = bo.UCB{Beta: 2}
	case "pi":
		e.acq = bo.PI{Xi: opt.Xi}
	case "ts":
	default:
		return nil, fmt.Errorf("core: unknown acquisition %q (want ei, ucb, pi, or ts)", opt.Acquisition)
	}
	for r, res := range space.Resources {
		if res.Units > math.MaxUint16 {
			return nil, fmt.Errorf("core: %s has %d units; a record holds at most 65535", res.Kind, res.Units)
		}
		if len(opt.Managed) == 0 || slices.Contains(opt.Managed, res.Kind) {
			e.managedRows = append(e.managedRows, r)
		}
	}
	if len(e.managedRows) == 0 {
		return nil, fmt.Errorf("core: none of the managed kinds %v exist in the space", opt.Managed)
	}
	// A row of U units among M jobs has C(U−1, M−1) compositions: one
	// exactly when nothing is divided (M = 1) or every job sits on its
	// 1-unit floor (U = M). Unmanaged rows stay at the equal split either way.
	e.single = true
	for _, r := range e.managedRows {
		e.single = e.single && (space.Jobs == 1 || space.Resources[r].Units == space.Jobs)
	}
	if e.single {
		return e, nil
	}
	e.model = gp.NewIncremental(gp.Options{Noise: modelNoise})
	if opt.RandomInit {
		// Ablation mode: random initial design.
		for i := 0; i < opt.InitialSamples; i++ {
			e.initQueue = append(e.initQueue, e.randomConfig())
		}
		return e, nil
	}
	// S_init: equal split + low-imbalance perturbations, restricted to
	// managed rows.
	for _, c := range space.InitialSet(opt.InitialSamples * 3) {
		if len(e.initQueue) >= opt.InitialSamples {
			break
		}
		e.pinUnmanaged(c)
		if !slices.ContainsFunc(e.initQueue, c.Equal) {
			e.initQueue = append(e.initQueue, c)
		}
	}
	return e, nil
}

// Name implements policy.Policy.
func (e *Engine) Name() string {
	if e.opt.Name != "" {
		return e.opt.Name
	}
	switch e.sched.Mode() {
	case WeightsStatic:
		switch e.sched.staticT {
		case 1:
			return "satori-throughput"
		case 0:
			return "satori-fairness"
		default:
			return "satori-static"
		}
	case WeightsFavorStronger:
		return "satori-favor-stronger"
	case WeightsSLOAware:
		return "satori-slo"
	default:
		return "satori"
	}
}

// pinUnmanaged pins the unmanaged resource rows of c to the equal split,
// in place.
func (e *Engine) pinUnmanaged(c resource.Config) {
	for r := range c.Alloc {
		if !slices.Contains(e.managedRows, r) {
			copy(c.Alloc[r], e.equalSplit.Alloc[r])
		}
	}
}

// randomConfig draws a fresh uniform random managed configuration.
func (e *Engine) randomConfig() resource.Config {
	c := e.space.Random(e.rng)
	e.pinUnmanaged(c)
	return c
}

// Decide implements policy.Policy — one iteration of Algorithm 1, as the
// list of its stages. Only the stages touch engine state, and each
// diagnostic counter has one stage that writes it. An exploit returns the
// engine's own configuration (out), which the next Decide overwrites, as
// policy.Policy allows.
func (e *Engine) Decide(obs policy.Observation, current resource.Config) resource.Config {
	t := tick{obs: obs, current: current}
	e.scheduleWeights(&t)
	e.record(&t)
	if only, forced := e.forced(); forced {
		return only
	}
	if next, seeding := e.seed(); seeding {
		return next
	}
	e.rankWindow(&t)
	t.scratch = gp.TakeScratch()
	if err := e.syncModel(t.window, t.w, t.scratch); err != nil {
		t.scratch.Release()
		// Degenerate window (should not happen after seeding): explore.
		return e.randomConfig()
	}
	e.trackProxyChange(t.window)
	// The walks' moved coordinates, on the stack for the default 16 walks.
	var moved [16 * (2*walkSteps + 1)]int32
	walks := e.buildPool(&t, moved[:0])
	e.scorePool(&t, walks)
	idx, score, err := e.acquire(&t)
	next := e.settle(&t, idx, score, err)
	e.keepBlocks(t.scratch, e.inWindow(next))
	t.scratch.Release()
	return next
}

// inWindow reports whether next, the tick's decision, is a record of the
// proxy model's window, a row of modelRecs: an exploit's incumbent, a
// failed acquisition's current configuration, or a probe of a recorded
// configuration. The next tick then records it again and keeps the
// window's membership, and with it the model's kernel epoch. Any other
// decision adds a record that the next tick's model update must take in,
// by an append or a refit, and either moves the epoch.
func (e *Engine) inWindow(next resource.Config) bool {
	slot := e.recs.lookup(next)
	return slot >= 0 && e.isRow(slot)
}

// isRow reports whether the record in slot is a row of the proxy model.
func (e *Engine) isRow(slot int32) bool {
	row := e.recs.recs[slot].row
	return row >= 0 && int(row) < len(e.modelRecs) && e.modelRecs[row] == slot
}

// keepBlocks readies the blocks for the ticks between this one and the
// next. When the decision keeps the kernel epoch (inWindow), the top
// records' blocks keep K*, each part in storage at most twice its size
// (gp.PredictScratch.Trim), and the others hand K* to s and keep their
// tails (Shed); scorePool met the top records' blocks last, so they lead
// the store. Else every block's storage goes to s (Recycle), so that no
// block keeps what no later tick reads. A block left empty keeps its
// record, and the next tick that meets it fills it afresh, to the bits a
// re-score would give.
func (e *Engine) keepBlocks(s *gp.PredictScratch, keep bool) {
	for i := range e.blocks {
		switch blk := &e.blocks[i].Block; {
		case !keep:
			s.Recycle(blk)
		case i < e.poolTopN:
			s.Trim(blk)
		default:
			s.Shed(blk)
		}
	}
}

// scheduleWeights fixes this tick's goal weights (Sec. III-C) and the
// objective value the observation scores under them. SLO-aware scheduling
// also needs the loop's violation state, fed before the scheduler steps.
func (e *Engine) scheduleWeights(t *tick) {
	if e.sched.Mode() == WeightsSLOAware {
		e.sched.SetSLOViolating(t.obs.SLOViolating)
	}
	t.w = e.sched.Step(t.obs.Throughput, t.obs.Fairness)
	e.lastWeights = t.w
	e.lastObj = t.w.T*t.obs.Throughput + t.w.F*t.obs.Fairness
}

// record folds the observation into the per-goal records (Sec. III-B).
func (e *Engine) record(t *tick) {
	e.recs.Update(e.space, t.current, t.obs.Throughput, t.obs.Fairness, t.obs.Tick)
}

// forced answers "is there anything to decide?" from what New observed of
// the space: a managed space of one configuration (a node running a single
// job, a cluster space at K = 1, every managed row on its 1-unit floor)
// leaves nothing to seed, model or acquire, so the tick ends here with that
// configuration. The weights and the one record above stay live for their
// readers; nothing else is written and no random number is drawn.
func (e *Engine) forced() (only resource.Config, forced bool) {
	if e.single {
		e.forcedTicks++
	}
	return e.equalSplit, e.single
}

// seed hands out the next configuration of the initial design while any
// is left; the model is not consulted until all of it has been observed.
// The emptied queue is dropped: its backing array would keep every handed
// out configuration alive.
func (e *Engine) seed() (next resource.Config, seeding bool) {
	if len(e.initQueue) == 0 {
		return resource.Config{}, false
	}
	next, e.initQueue = e.initQueue[0], e.initQueue[1:]
	if len(e.initQueue) == 0 {
		e.initQueue = nil
	}
	e.seedTicks++
	return next, true
}

// rankWindow reconstructs, in software, the objective of every window
// record under this tick's weights (Sec. III-B) and ranks them: the
// incumbent best, and the top few records whose neighborhoods seed the
// pool (fixed arrays keep them off the heap).
func (e *Engine) rankWindow(t *tick) {
	t.window = e.recs.window(e.opt.Window)
	t.best = math.Inf(-1)
	var topY [len(t.top)]float64
	for _, slot := range t.window {
		y := e.recs.objective(slot, t.w)
		if y > t.best {
			t.best, t.incumbent = y, slot
		}
		p := t.topN
		for i := 0; i < t.topN; i++ {
			if y > topY[i] {
				p = i
				break
			}
		}
		if p == len(t.top) {
			continue
		}
		if t.topN < len(t.top) {
			t.topN++
		}
		for i := t.topN - 1; i > p; i-- {
			topY[i], t.top[i] = topY[i-1], t.top[i-1]
		}
		topY[p], t.top[p] = y, e.recs.ref(slot)
	}
}

// A settled engine scores fewer fresh candidates. After settleTicks
// consecutive exploit ticks on which no fresh candidate could win, buildPool
// still takes every candidate's draws, in the same order, but only the
// first 1/narrowBy of the random half and of the walk half are built and
// scored. A tick that probes, fails, or finds a scored fresh candidate that
// could win resets the count, and the next tick scores the whole panel
// (DESIGN.md §4).
const (
	settleTicks = 10
	narrowBy    = 4
)

// buildPool fills the candidate pool: uniform random managed
// configurations for global coverage, short random walks from the
// incumbent for local refinement (uniform compositions are often
// pathologically imbalanced, and probing them in a live system punishes
// the starved jobs — cf. the worst-job metric of Fig. 9), then the exact
// neighborhoods of the top records. Each fresh candidate is drawn into one
// working configuration and written at once as its point in the tick's
// scratch, where the fill reads it; the generation order fixes the RNG draw
// sequence. A neighborhood is only counted: nothing reads a neighbor as a
// configuration but settle, and settle reads only the winner.
//
// The tick's fresh panel is the kept random candidates, then the kept walks,
// each in draw order, so ties between them break as in the whole panel. A
// settled engine keeps a quarter of each half: the rest only advance the
// RNG by the draws building them would take (SkipRandom, skipWalk). The
// kept walks are returned described for the fill, their moved coordinates
// appended to moved.
func (e *Engine) buildPool(t *tick, moved []int32) gp.Walks {
	narrow := e.settled >= settleTicks
	if narrow {
		e.narrowTicks++
	}
	n, randoms := e.opt.Candidates, e.opt.Candidates/2
	keepR, keepW := e.freshPanel(narrow)
	t.fresh = keepR + keepW
	pts := &t.scratch.Points
	pts.Reset(t.fresh, e.space.Dim())
	for i := 0; i < randoms; i++ {
		if i >= keepR {
			e.space.SkipRandom(e.rng)
			continue
		}
		e.space.RandomInto(e.rng, e.work)
		e.pinUnmanaged(e.work)
		e.configPoint(pts, i, e.work)
	}
	for i := 0; i < n-randoms; i++ {
		if i >= keepW {
			e.skipWalk()
			continue
		}
		moved = append(e.randomWalkInto(e.work, t.incumbent, walkSteps, moved), -1)
		e.configPoint(pts, keepR+i, e.work)
	}
	e.candCount = n
	e.poolTop, e.poolTopN = t.top, t.topN
	for i, rec := range t.top[:t.topN] {
		e.candCount += e.neighborhoodSize(rec.slot)
		e.poolEnd[i] = e.candCount
	}
	return gp.Walks{Base: int(e.recs.recs[t.incumbent].row), Moved: moved}
}

// buildTables builds enc, work and out, once: a forced engine, or one
// still seeding, has none.
func (e *Engine) buildTables() {
	if e.enc != nil {
		return
	}
	e.enc = make([][]float64, len(e.space.Resources))
	for r, res := range e.space.Resources {
		e.enc[r] = make([]float64, res.Units+1)
		for u := range e.enc[r] {
			e.enc[r][u] = float64(u) / float64(res.Units)
		}
	}
	e.work, e.out = e.space.NewConfig(), e.space.NewConfig()
}

// vectorInto writes the GP encoding of slot's configuration into dst, each
// coordinate looked up in enc: the bits of Space.Vector.
func (e *Engine) vectorInto(dst []float64, slot int32) {
	u, jobs := e.recs.unitsOf(slot), e.space.Jobs
	for r, enc := range e.enc {
		for j, v := range u[r*jobs : (r+1)*jobs] {
			dst[r*jobs+j] = enc[v]
		}
	}
}

// freshPanel returns how many of the random and of the random-walk
// candidates a tick scores: all of them, or when narrow the first
// 1/narrowBy of each half, rounded up.
func (e *Engine) freshPanel(narrow bool) (randoms, walks int) {
	randoms, walks = e.opt.Candidates/2, e.opt.Candidates-e.opt.Candidates/2
	if narrow {
		randoms, walks = (randoms+narrowBy-1)/narrowBy, (walks+narrowBy-1)/narrowBy
	}
	return randoms, walks
}

// acquire maximizes the acquisition over the scored pool (Expected
// Improvement by default, Sec. III-A; UCB/PI/Thompson for the acquisition
// ablation), returning the winner's pool index and score. Thompson sampling
// draws from the joint posterior over the pool and has no score.
//
// scorePool has already taken the argmax over the blocks; this merges the
// scored fresh candidates' argmax into it, or, when scorePool proved none of
// them could win, returns the block winner. The fresh candidates come first
// in the pool, so they win ties: the result is bo.Argmax over the scored
// pool.
func (e *Engine) acquire(t *tick) (idx int, score float64, err error) {
	if e.acq == nil {
		idx, err = bo.ThompsonSuggest(e.model, e.rng, e.poolPoints(&t.scratch.Points))
		return idx, 0, err
	}
	if !t.freshSkipped {
		idx, score, err = bo.Argmax(e.acq, t.best, t.mu[:t.fresh], t.sigma[:t.fresh])
		if t.blockErr != nil || err == nil && score >= t.blockScore {
			return idx, score, err
		}
	}
	return e.opt.Candidates + t.blockIdx, t.blockScore, nil
}

// settle turns the acquisition's result into the tick's decision and
// counts it. A degenerate posterior (bo.ErrNoFiniteScore) or any other
// acquisition error keeps the current configuration, counted as a failure
// rather than passed off as a deliberate hold. A winner promising no
// meaningful improvement is not worth another probe in the running system:
// the engine exploits, holding (or returning to) the incumbent — the
// paper's "avoid frequent updates after the optimal configuration
// detection" (Sec. V). Otherwise the winner is probed. Only an exploit whose
// fresh panel was ruled out extends the engine's settled run.
func (e *Engine) settle(t *tick, idx int, score float64, err error) resource.Config {
	settled := e.settled
	e.settled = 0
	switch {
	case err != nil || idx < 0:
		e.acqFailures++
		return t.current
	case score < e.exploitBelow:
		if t.freshSkipped {
			e.settled = min(settled+1, settleTicks)
		}
		e.exploits++
		e.recs.configInto(e.out, t.incumbent)
		return e.out
	}
	return e.candidate(&t.scratch.Points, idx)
}

// syncModel folds this tick's window into the incremental proxy model,
// choosing the cheapest sufficient update (Sec. V overhead optimization):
//
//   - unchanged membership (every exploit/revisit tick): only the
//     re-weighted targets moved, so UpdateGoals gets each model row's
//     throughput and fairness and this tick's weights, and forms α from
//     the goal basis in O(n) — the kernel factor carries over untouched;
//   - exactly one new configuration: O(n²) rank-1 Cholesky append;
//   - anything else (first fit after seeding, window eviction, model
//     recovery): full refit, adopting the window's order.
//
// The model works in s, the tick's scratch, for the call, so the update
// borrows no scratch of its own; the inputs it copies in are encoded into
// the scratch too (gp.PredictScratch.Inputs). On error the model is empty,
// the failure is counted and the engine's membership tracking is cleared,
// so the next tick re-enters through the Reset path.
func (e *Engine) syncModel(window []int32, w Weights, s *gp.PredictScratch) error {
	e.modelTicks++
	e.buildTables()
	e.model.UseScratch(s)
	defer e.model.UseScratch(nil)
	n, recs := len(window), e.recs.recs
	fresh, miss := int32(-1), -1
	if n > 0 && e.model.Len() == len(e.modelRecs) &&
		(n == len(e.modelRecs) || n == len(e.modelRecs)+1) {
		miss = 0
		for _, slot := range window {
			if !e.isRow(slot) {
				miss++
				fresh = slot
				if miss > 1 {
					break
				}
			}
		}
	}
	switch {
	case miss == 0 && n == len(e.modelRecs):
		e.rowBuf = slices.Grow(e.rowBuf[:0], 2*n)[:2*n]
		t, f := e.rowBuf[:n], e.rowBuf[n:]
		for i, slot := range e.modelRecs {
			t[i], f[i] = recs[slot].throughput, recs[slot].fairness
		}
		if err := e.model.UpdateGoals(t, f, w.T, w.F); err != nil {
			return e.dropModel(err)
		}
	case miss == 1 && n == len(e.modelRecs)+1:
		e.rowBuf = e.rowBuf[:0]
		for _, slot := range e.modelRecs {
			e.rowBuf = append(e.rowBuf, e.recs.objective(slot, w))
		}
		e.rowBuf = append(e.rowBuf, e.recs.objective(fresh, w))
		x := s.Inputs(1, e.space.Dim())[0]
		e.vectorInto(x, fresh)
		refits := e.model.Stats().Refits
		if err := e.model.Append(x, e.rowBuf); err != nil {
			return e.dropModel(err)
		}
		if e.model.Stats().Refits != refits {
			e.appendRefits++
		}
		recs[fresh].row = int32(len(e.modelRecs))
		e.modelRecs = append(e.modelRecs, fresh)
	default:
		xs := s.Inputs(n, e.space.Dim())
		e.rowBuf = e.rowBuf[:0]
		e.modelRecs = e.modelRecs[:0]
		for i, slot := range window {
			e.vectorInto(xs[i], slot)
			e.rowBuf = append(e.rowBuf, e.recs.objective(slot, w))
			e.modelRecs = append(e.modelRecs, slot)
			recs[slot].row = int32(i)
		}
		if err := e.model.Reset(xs, e.rowBuf); err != nil {
			return e.dropModel(err)
		}
	}
	return nil
}

// dropModel counts a model failure and clears the membership tracking so
// the next tick rebuilds from the window. The tick explores, which ends a
// settled run.
func (e *Engine) dropModel(err error) error {
	e.fitFailures++
	e.modelRecs = e.modelRecs[:0]
	e.settled = 0
	return err
}

// poolPoints extends pts, the fresh panel buildPool wrote, to the whole
// pool, the neighbourhoods after the fresh candidates, and returns it: each
// coordinate is written once, where the fill reads it. Only Thompson
// sampling, which never narrows its panel, reads the whole pool as points.
func (e *Engine) poolPoints(pts *gp.Points) *gp.Points {
	pts.Grow(e.candCount)
	start := e.opt.Candidates
	for s, rec := range e.poolTop[:e.poolTopN] {
		e.neighborPoints(pts, rec.slot, start, e.poolEnd[s])
		start = e.poolEnd[s]
	}
	return pts
}

// configPoint writes c's encoding as point col of pts, each coordinate
// looked up in enc.
func (e *Engine) configPoint(pts *gp.Points, col int, c resource.Config) {
	at, stride := pts.Column(col)
	for r, row := range c.Alloc {
		enc := e.enc[r]
		for _, u := range row {
			pts.Data[at] = enc[u]
			at += stride
		}
	}
}

// neighborPoints writes the members of slot's neighborhood, pool indices
// [start, end), as points [start, end) of pts. A neighbor's encoding is the
// record's with the donor's and the receiver's coordinates rewritten from
// enc, so it has the bits of encoding the moved configuration: the
// record's encoding, laid out in rowBuf, is broadcast over the range, then
// each member's two coordinates are patched.
func (e *Engine) neighborPoints(pts *gp.Points, slot int32, start, end int) {
	jobs, i := e.space.Jobs, start
	e.rowBuf = slices.Grow(e.rowBuf[:0], e.space.Dim())[:e.space.Dim()]
	e.vectorInto(e.rowBuf, slot)
	pts.Broadcast(start, end, e.rowBuf)
	units := e.recs.unitsOf(slot)
	for _, r := range e.managedRows {
		row, enc := units[r*jobs:(r+1)*jobs], e.enc[r]
		for from, u := range row {
			if u <= 1 {
				continue
			}
			give := enc[u-1]
			for to, v := range row {
				if to == from {
					continue
				}
				at, stride := pts.Column(i)
				pts.Data[at+(r*jobs+from)*stride] = give
				pts.Data[at+(r*jobs+to)*stride] = enc[v+1]
				i++
			}
		}
	}
}

// neighborMoves describes slot's neighborhood for the model's moved fill,
// in neighborPoints' enumeration order: the base point is the record's
// model row, a group is a resource row of Jobs coordinates, and a managed
// coordinate holding more than one unit gives, to every other job of its
// row. Give and Take hold the moved values from enc, the ones
// neighborPoints writes; an unmanaged coordinate gives nothing and keeps
// its value. The two tables live in rowBuf, free once the window's means
// are tracked.
func (e *Engine) neighborMoves(slot int32) gp.Moves {
	dim, jobs := e.space.Dim(), e.space.Jobs
	e.rowBuf = slices.Grow(e.rowBuf[:0], 2*dim)[:2*dim]
	give, take := e.rowBuf[:dim], e.rowBuf[dim:]
	e.vectorInto(take, slot)
	for k := range give {
		give[k] = math.NaN()
	}
	units := e.recs.unitsOf(slot)
	for _, r := range e.managedRows {
		enc := e.enc[r]
		for j, u := range units[r*jobs : (r+1)*jobs] {
			if u > 1 {
				give[r*jobs+j] = enc[u-1]
			}
			take[r*jobs+j] = enc[u+1]
		}
	}
	return gp.Moves{Base: int(e.recs.recs[slot].row), Group: jobs, Give: give, Take: take}
}

// scorePool leaves the proxy model's posterior mean and standard deviation
// at every pool candidate, in pool order, in t.mu and t.sigma, slots of the
// tick's scratch. The random and random-walk candidates are new every tick
// and scored from scratch.
// The neighborhood of poolTop[i] — pool entries up to poolEnd[i] — depends
// on that record alone, so its block is kept under the record, and the
// model re-scores it (means only) until a refit or append outdates the
// block. A block that kept K* is re-scored from it; one that handed it back
// is revived from its tail while the epoch it was filled under stands. Any
// other is filled from its moves: the record is a window row, so its
// neighbors' distances to the window are the model's stored ones plus the
// two coordinates each move changes.
//
// The blocks are scored, and their argmax taken, first. Under EI a kept
// block that is current and whose projections cover the goal basis is first
// bounded as a whole (gp.BlockCeiling): when EI's ceiling at the bound is
// below the exploit threshold, no point of it can change the decision, and
// it is ruled out unscored — its slots hold whatever the scratch held
// (argmaxBlocks). The fresh candidates' means come next, and their σ only
// if one of them could still win: otherwise the triangular solve of their
// panel is skipped, and their σ slots hold the ceilings that ruled them
// out. Only the tick's t.fresh candidates are scored; the slots of the
// unscored ones are not written.
func (e *Engine) scorePool(t *tick, walks gp.Walks) {
	sc := t.scratch
	mu, sigma := sc.PoolPosterior(e.candCount)
	t.mu, t.sigma = mu, sigma
	top, blocks := e.poolTop[:e.poolTopN], e.opt.Candidates // the blocks start after every fresh slot
	ei, isEI := e.acq.(bo.EI)
	lo := blocks
	e.ruledOut = 0
	for i, rec := range top {
		hi := e.poolEnd[i]
		blk, kept := e.blockFor(rec, top)
		if isEI && kept && hi > lo {
			if m, s, ok := e.model.BlockCeiling(&blk.Block, hi-lo); ok && ei.Ceiling(m, s, t.best) < e.exploitBelow {
				e.ruledOut |= 1 << i
				e.blocksOut++
				e.blockCandsOut += hi - lo
				lo = hi
				continue
			}
		}
		switch {
		case kept && e.model.RepredictBlockInto(&blk.Block, mu[lo:hi], sigma[lo:hi]):
			e.blockHits++
		case kept && e.revive(sc, blk, mu[lo:hi], sigma[lo:hi]):
			e.blockRevivals++
		default:
			e.blockMisses++
			mv := e.neighborMoves(rec.slot)
			e.model.PredictMovedBlockInto(sc, &blk.Block, mu[lo:hi], sigma[lo:hi], &mv)
		}
		e.candsScored += hi - lo
		lo = hi
	}
	switch {
	case e.acq == nil:
	case e.ruledOut == 0:
		t.blockIdx, t.blockScore, t.blockErr = bo.Argmax(e.acq, t.best, mu[blocks:], sigma[blocks:])
	default:
		e.argmaxBlocks(t)
	}
	e.model.PredictMeansInto(sc, mu[:t.fresh], &sc.Points, walks)
	if !e.freshCanWin(t) {
		t.freshSkipped = true
		e.freshSkips++
		e.freshCandsOut += t.fresh
		return
	}
	e.model.PredictSigmasInto(sc, sigma[:t.fresh])
	e.candsScored += t.fresh
}

// argmaxBlocks is the blocks' argmax when some were ruled out: over the
// scored blocks, an earlier block winning a tie as in one Argmax over all of
// them, and −Inf at the first ruled-out point when none scores. Either way
// it leaves blockErr nil. Every score of a ruled-out block is finite and
// below exploitBelow, so the winner it leaves out could only have been one
// whose verdict is exploit; freshCanWin's floor, acquire's merge and
// settle's verdict come out as they would have with it (DESIGN.md §4).
func (e *Engine) argmaxBlocks(t *tick) {
	blocks := e.opt.Candidates
	mu, sigma := t.mu[blocks:], t.sigma[blocks:]
	t.blockIdx, t.blockScore = -1, math.Inf(-1)
	lo := 0
	for i, end := range e.poolEnd[:e.poolTopN] {
		hi := end - blocks
		if e.ruledOut&(1<<i) != 0 {
			if t.blockIdx < 0 {
				t.blockIdx = lo
			}
		} else if idx, score, err := bo.Argmax(e.acq, t.best, mu[lo:hi], sigma[lo:hi]); err == nil && score > t.blockScore {
			t.blockIdx, t.blockScore = lo+idx, score
		}
		lo = hi
	}
}

// freshCanWin reports whether a fresh candidate, its mean known and its σ
// not yet solved for, could still change the tick's decision. Only EI has
// a ceiling (bo.EI.Ceiling). A candidate is ruled out when its ceiling is
// below the floor: the block winner's score, since a fresh candidate wins
// a tie, raised to the exploit threshold, under which any winner leaves
// the decision at exploit. It is tried at the prior σ first, which no
// computed σ exceeds, then at the model's nearest-point ceiling, which the
// first candidate of a panel to fail the prior's test has the model write
// into its σ slot and those of the rest of its panel at once; the first
// candidate that survives both ends the search. Each ruled-out candidate's
// σ slot is left holding the σ its ceiling was taken at.
func (e *Engine) freshCanWin(t *tick) bool {
	ei, isEI := e.acq.(bo.EI)
	if !isEI || t.blockErr != nil {
		return true
	}
	floor := max(t.blockScore, e.exploitBelow)
	prior := e.model.PriorSigma()
	ceiled := 0 // the panel end up to which t.sigma holds ceilings
	for i, m := range t.mu[:t.fresh] {
		if ei.Ceiling(m, prior, t.best) < floor {
			t.sigma[i] = prior
			continue
		}
		if i >= ceiled {
			ceiled = e.model.SigmaCeilingsInto(t.scratch, t.sigma[:t.fresh], i)
		}
		if !(ei.Ceiling(m, t.sigma[i], t.best) < floor) {
			return true
		}
	}
	return false
}

// revive re-scores blk's neighborhood into mu and sigma from its tail,
// without a triangular solve, and reports whether it could: not when the
// block was filled under another kernel epoch (gp.ReviveMovedBlockInto). A
// revived block whose projections fall short of the basis has its K*
// refilled from its moves.
func (e *Engine) revive(sc *gp.PredictScratch, blk *neighborBlock, mu, sigma []float64) bool {
	mv := e.neighborMoves(blk.rec.slot)
	ok, refilled := e.model.ReviveMovedBlockInto(sc, &blk.Block, mu, sigma, &mv)
	if refilled {
		e.blockRefills++
	}
	return ok
}

// blockFor moves rec's block to the front of the store and returns it, and
// kept: whether it is the block rec had. When rec has none, the least
// recently met block whose record is not among this tick's top
// configurations is re-keyed to rec, its contents left for the fill to
// overwrite (there are more blocks than top configurations, so one always
// is). The store is allocated by the first call.
func (e *Engine) blockFor(rec ref, top []ref) (blk *neighborBlock, kept bool) {
	if e.blocks == nil {
		e.blocks = make([]neighborBlock, blockSlots)
	}
	at := 0
	for at < len(e.blocks) && e.blocks[at].rec != rec {
		at++
	}
	if kept = at < len(e.blocks); !kept {
		for at = len(e.blocks) - 1; slices.Contains(top, e.blocks[at].rec); at-- {
		}
	}
	moved := e.blocks[at]
	copy(e.blocks[1:at+1], e.blocks[:at])
	e.blocks[0], e.blocks[0].rec = moved, rec
	return &e.blocks[0], kept
}

// walkSteps is how many one-unit moves a fresh walk tries.
const walkSteps = 3

// skipWalk advances the RNG exactly as a walk of walkSteps steps does,
// building nothing.
func (e *Engine) skipWalk() {
	var d [3 * walkSteps]int
	e.walkDraws(d[:])
}

// walkDraws takes the draws of len(d)/3 walk steps into d in one Intns
// call: per step a managed row's index, a donor and a receiver. It draws
// nothing when no row is managed.
func (e *Engine) walkDraws(d []int) {
	if len(e.managedRows) == 0 {
		return
	}
	for s := 0; s < len(d); s += 3 {
		d[s], d[s+1], d[s+2] = len(e.managedRows), e.space.Jobs, e.space.Jobs
	}
	e.rng.Intns(d)
}

// randomWalkInto copies the configuration in slot into dst and applies up
// to steps random one-unit
// moves in managed rows; an illegal move still burns its draws. Rows are
// sampled from the managed set only: drawing over all rows and skipping
// unmanaged ones would consume steps without moving, so walks under the
// Sec. V source-of-benefit ablations (Managed restricted to a subset) would
// be systematically shorter than full SATORI's. It appends to moved the
// coordinates (row·Jobs + job, as VectorInto lays them out) that its legal
// moves changed, each the first time it moves, and returns it: the walk's
// encoding differs from the record's in no other coordinate (gp.Walks).
func (e *Engine) randomWalkInto(dst resource.Config, slot int32, steps int, moved []int32) []int32 {
	e.recs.configInto(dst, slot)
	if len(e.managedRows) == 0 {
		return moved
	}
	start, jobs := len(moved), e.space.Jobs
	var d [3 * walkSteps]int
	for s := 0; s < steps; s += walkSteps {
		draws := d[:3*min(walkSteps, steps-s)]
		e.walkDraws(draws)
		for j := 0; j < len(draws); j += 3 {
			r, from, to := e.managedRows[draws[j]], draws[j+1], draws[j+2]
			if !e.space.MoveInPlace(dst, r, from, to) {
				continue
			}
			for _, k := range [...]int32{int32(r*jobs + from), int32(r*jobs + to)} {
				if !slices.Contains(moved[start:], k) {
					moved = append(moved, k)
				}
			}
		}
	}
	return moved
}

// neighborhoodSize counts the one-unit moves of slot's configuration within
// managed rows: every job holding more than one unit of a row can give one
// to each of the others.
func (e *Engine) neighborhoodSize(slot int32) int {
	donors, units, jobs := 0, e.recs.unitsOf(slot), e.space.Jobs
	for _, r := range e.managedRows {
		for _, u := range units[r*jobs : (r+1)*jobs] {
			if u > 1 {
				donors++
			}
		}
	}
	return donors * (e.space.Jobs - 1)
}

// candidate returns pool candidate idx as a configuration of its own: a
// fresh candidate decoded from its point in pts, where buildPool wrote it,
// or the neighbor at its offset in the enumeration order — managed row,
// then donor, then receiver — applied to a copy of its record's
// configuration.
func (e *Engine) candidate(pts *gp.Points, idx int) resource.Config {
	if idx < e.opt.Candidates {
		return e.decode(pts, idx)
	}
	s, off := 0, idx-e.opt.Candidates
	for s < e.poolTopN-1 && idx >= e.poolEnd[s] {
		off = idx - e.poolEnd[s]
		s++
	}
	c, moves := e.space.NewConfig(), e.space.Jobs-1
	e.recs.configInto(c, e.poolTop[s].slot)
	for _, r := range e.managedRows {
		for from, u := range c.Alloc[r] {
			if u <= 1 {
				continue
			}
			if off >= moves {
				off -= moves
				continue
			}
			to := off
			if to >= from {
				to++
			}
			c.Alloc[r][from]--
			c.Alloc[r][to]++
			return c
		}
	}
	panic(fmt.Sprint("core: pool index past the pool: ", idx))
}

// decode returns the configuration whose encoding is point col of pts. Each
// row of enc is strictly increasing in the unit count, so a coordinate
// found in it encodes exactly one count: the lookup inverts configPoint
// exactly, and a coordinate it does not find is a broken pool.
func (e *Engine) decode(pts *gp.Points, col int) resource.Config {
	c := e.space.NewConfig()
	at, stride := pts.Column(col) // the point's first coordinate
	for r, row := range c.Alloc {
		for j := range row {
			u, ok := slices.BinarySearch(e.enc[r], pts.Data[at])
			if !ok {
				panic(fmt.Sprintf("core: pool point %d holds %v, no encoding of a unit count of row %d", col, pts.Data[at], r))
			}
			row[j] = u
			at += stride
		}
	}
	return c
}

// trackProxyChange records the mean absolute relative change of the proxy
// model's predictions across consecutive iterations over the recorded
// configurations — the quantity of Fig. 17(b).
//
// Every window record is a row of the proxy model once syncModel has
// succeeded, so the posterior means of all of them are the model's
// closed form y − jitter·α, O(n). A record counts only when the previous
// sweep predicted it too (a tick whose fit fails runs no sweep).
func (e *Engine) trackProxyChange(window []int32) {
	e.sweep++
	e.rowBuf = e.model.PredictMeansAtInto(e.rowBuf)
	sum, n := 0.0, 0
	for _, slot := range window {
		rec := &e.recs.recs[slot]
		p := e.rowBuf[rec.row]
		if rec.predFor == e.sweep {
			denom := math.Abs(rec.pred)
			if denom < 1e-9 {
				denom = 1e-9
			}
			sum += math.Abs(p-rec.pred) / denom * 100
			n++
		}
		rec.pred, rec.predFor = p, e.sweep+1
	}
	if n > 0 {
		e.proxyChange = sum / float64(n)
	}
}

// LastWeights returns the weight decomposition of the last Decide call
// (Fig. 14(a)).
func (e *Engine) LastWeights() Weights { return e.lastWeights }

// LastObjective returns the objective value W_T·T + W_F·F observed at the
// last Decide call (Fig. 17(a)).
func (e *Engine) LastObjective() float64 { return e.lastObj }

// ProxyChange returns the latest mean % change of the proxy model's
// predictions between consecutive iterations (Fig. 17(b)).
func (e *Engine) ProxyChange() float64 { return e.proxyChange }

// Records returns the per-goal configuration records.
func (e *Engine) Records() *Records { return e.recs }

// Stats counts what an engine's ticks did, one integer per event, over the
// engine's life. Each counter has one writer, the stage of Decide named
// with it; nothing reads a clock, so counting costs an increment.
type Stats struct {
	// ForcedTicks counts the ticks of a one-configuration space (forced),
	// SeedTicks those that handed out the initial design (seed), and
	// ModelTicks those that reached the proxy model (syncModel); every
	// Decide is exactly one of the three.
	ForcedTicks, SeedTicks, ModelTicks int
	// RecordHeadHits counts the ticks whose configuration was the one
	// recorded last, found by the record store without building its key
	// (Records.HeadHits).
	RecordHeadHits int
	// The proxy-model update each of those ticks took, read off the model:
	// Refits refactorized (a changed window, moved heuristics, a failed
	// extend), Extends appended one point by a rank-1 extend, TargetSolves
	// re-solved α alone. Of the Refits, AppendRefits were taken by a window
	// that gained one record — appends whose new point moved the median
	// length scale or the variance, or could not extend (syncModel). A
	// tick's update either fails or takes exactly one of the three, so
	// Refits + Extends + TargetSolves = ModelTicks − FitFailures.
	Refits, Extends, TargetSolves, AppendRefits int
	// FitFailures counts model updates that failed (syncModel).
	FitFailures int
	// BlockHits, BlockRevivals and BlockMisses count the neighborhood
	// blocks re-scored from the K* they kept, re-scored without a solve from
	// a block without K* filled under the current kernel epoch, and filled
	// afresh; BlocksRuledOut counts those left unscored because EI's ceiling
	// over the whole block fell below the exploit threshold. Every block a
	// tick meets is one of the four. BlockRefills counts the revivals whose
	// K* had to be refilled from the moves first (their projections fell
	// short of the goal basis). FreshSkips counts the ticks whose fresh
	// panel was not solved (scorePool).
	BlockHits, BlockRevivals, BlockRefills, BlockMisses, BlocksRuledOut, FreshSkips int
	// The same, candidate by candidate: BlockCandidatesRuledOut counts the
	// candidates of the blocks ruled out by their ceiling,
	// FreshCandidatesRuledOut the fresh candidates of the ticks whose fresh
	// panel its σ ceilings ruled out, and CandidatesScored those whose μ and
	// σ a tick computed or re-scored, blocks and fresh panel alike. On a
	// tick that scores its pool the three sum to the pool less the fresh
	// candidates a narrowed panel leaves unbuilt.
	BlockCandidatesRuledOut, FreshCandidatesRuledOut, CandidatesScored int
	// NarrowTicks counts the model ticks of a settled engine, which scored
	// only a narrowed fresh panel (buildPool).
	NarrowTicks int
	// Exploits and AcquisitionFailures count the scored ticks settled by
	// holding the incumbent and by keeping the current configuration
	// (settle).
	Exploits, AcquisitionFailures int
}

// Stats returns the engine's counters. An engine whose every decision is
// forced has no model: only ForcedTicks and RecordHeadHits move.
func (e *Engine) Stats() Stats {
	s := Stats{
		ForcedTicks: e.forcedTicks, SeedTicks: e.seedTicks, ModelTicks: e.modelTicks,
		RecordHeadHits: e.recs.HeadHits(), AppendRefits: e.appendRefits, FitFailures: e.fitFailures,
		BlockHits: e.blockHits, BlockRevivals: e.blockRevivals, BlockRefills: e.blockRefills, BlockMisses: e.blockMisses, BlocksRuledOut: e.blocksOut, FreshSkips: e.freshSkips, NarrowTicks: e.narrowTicks,
		BlockCandidatesRuledOut: e.blockCandsOut, FreshCandidatesRuledOut: e.freshCandsOut, CandidatesScored: e.candsScored,
		Exploits: e.exploits, AcquisitionFailures: e.acqFailures,
	}
	if e.model != nil {
		gs := e.model.Stats()
		s.Refits, s.Extends, s.TargetSolves = gs.Refits, gs.Extends, gs.TargetSolves
	}
	return s
}

// FitFailures counts degenerate proxy refits (Stats().FitFailures).
func (e *Engine) FitFailures() int { return e.fitFailures }

// AcquisitionFailures counts ticks on which the acquisition could not
// produce a candidate (degenerate posteriors scoring every candidate
// NaN/Inf — bo.ErrNoFiniteScore — or other suggest errors) and the engine
// held the current configuration (Stats().AcquisitionFailures).
func (e *Engine) AcquisitionFailures() int { return e.acqFailures }

// GPStats returns the proxy model's update-path counters (full refits vs
// rank-1 extends vs target-only updates), the GP tier of Stats.
func (e *Engine) GPStats() gp.IncrementalStats {
	if e.model == nil {
		return gp.IncrementalStats{}
	}
	return e.model.Stats()
}

// Exploits counts ticks on which the engine held the incumbent best
// configuration instead of probing (Stats().Exploits). Such ticks leave the
// window's membership alone, which is what lets the proxy model take its
// target-only update and the pool its cached neighborhood blocks.
func (e *Engine) Exploits() int { return e.exploits }
