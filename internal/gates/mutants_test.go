//go:build mutants

package gates

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The mutation table judges the checks that judge the engine's shortcuts.
// Each shortcut on the scoring path — the window's kept distances, the goal
// basis, neighbourhood blocks (moved fills and revivals), draw-only skips,
// narrowing, the block ceiling, walks filled from their moves, the batched
// draws, the fresh panel's σ ceilings, the state a node keeps between
// ticks and a forced engine's ticks after its first — is held by two broad
// checks in internal/core: the refit oracle, which refits the proxy model
// from scratch after every tick, and its draw-stream check, which rebuilds
// the tick's draws from a copy of the engine's generator (oracle_test.go,
// fed by the seeded random drives). A row is one known bug of one shortcut, as
// a one-line mutation of the source, and the tests that must catch it. A
// new shortcut adds rows here, not a test file of its own.
//
// Run it with `go test -tags mutants -run Mutants ./internal/gates`; each
// row rebuilds internal/{core,gp,stats,resource} and what links them, so the
// table stays out of the tier-1 `go test ./...`. A row of the AVX assembly
// is seen only where init takes the AVX kernels.

// The shortcuts, by the DESIGN.md §4 section that states each contract.
const (
	windowDistances = "window distances"
	goalBasis       = "goal basis"
	blocks          = "neighbourhood blocks, moved fills and revivals"
	drawSkips       = "draw-only skips"
	narrowing       = "narrowing"
	blockCeiling    = "block ceiling"
	walkUpdate      = "walks by update"
	drawBatch       = "draws in registers"
	freshCeilings   = "fresh ceilings"
	residentState   = "resident state"
	forcedSpace     = "nothing to decide"
)

// The checks that catch them.
const (
	refitOracle = "TestEngineMatchesRefitOracle"
	onSimulator = "TestEngineMatchesRefitOracleOnSimulator"
	drives      = "TestRandomDrivesMatchOracles"
	wide        = "TestEngineMatchesRefitOracleOnWideSimulator"
	ceilings    = "TestSigmaCeilingBoundsPosterior"
	retention   = "TestBlocksKeepKStarOnlyForAWindowDecision"
	pointers    = "TestRecordsMatchPointerStore"
	sorted      = "TestRecordsMatchSortedOracle"
	forcedTest  = "TestForcedSpaceSkipsTheSearch"
)

// A mutant is one row: in file, the text old, which must occur exactly once,
// becomes new, which differs from it in one line. The mutant must build, and
// every named test must fail under it.
type mutant struct {
	file, old, new string
	shortcut       string
	tests          []string
}

var mutants = []mutant{
	{
		file:     "internal/gp/incremental.go",
		old:      "return m.tri[i*(i-1)/2+j]",
		new:      "return m.tri[(i-1)*(i-2)/2+j]", // a row offset one row short
		shortcut: windowDistances,
		tests:    []string{refitOracle, onSimulator, drives, "FuzzMovedBlock"},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "return stamp[0] == float64(m.stats.BasisBuilds) && int(stamp[1]) == m.active()",
		new:      "return int(stamp[1]) == m.active()", // projections of an older basis pass as current
		shortcut: goalBasis,
		tests:    []string{onSimulator, drives},
	},
	{
		file:     "internal/gp/incremental.go",
		old:      "m.ctrBuf[i] = -inv",
		new:      "m.ctrBuf[i] = 0", // d_r not centred
		shortcut: goalBasis,
		tests:    []string{refitOracle, onSimulator, drives, "FuzzGoalBasis"},
	},
	{
		file:     "internal/gp/incremental.go",
		old:      "coef[maxGoals+j] = y[r] - (w[0]*t0[r] + w[1]*f0[r])",
		new:      "coef[maxGoals+j] = (w[0]*t0[r] + w[1]*f0[r]) - y[r]", // s_r's sign flipped
		shortcut: goalBasis,
		tests:    []string{refitOracle, onSimulator, drives, "FuzzGoalBasis"},
	},
	{
		file:     "internal/gp/incremental.go",
		old:      "if g == 1 || int(m.nlive)+nm == maxLive {",
		new:      "if g == 1 || int(m.nlive)+nm == maxLive+1 {", // a third live row admitted
		shortcut: goalBasis,
		// It panics, at the first test to meet a third live row.
		tests: []string{onSimulator},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "if b.epoch != m.epoch || len(b.tail) != tailLen(q) || len(sigma) != q {",
		new:      "if len(b.tail) != tailLen(q) || len(sigma) != q {", // a block without K* revived across epochs
		shortcut: blocks,
		tests:    []string{refitOracle, onSimulator, drives},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "row[c] = math.Float64frombits(v &^ uint64(int64(v)>>63))",
		new:      "row[c] = math.Float64frombits(v)", // the moved fill's max(0, ·) clamp dropped
		shortcut: blocks,
		tests:    []string{onSimulator, drives},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "gi[k] = base + (dg*dg - dp*dp)",
		new:      "gi[k] = base + (dg*dg + dp*dp)", // a move's table entry of the wrong sign
		shortcut: blocks,
		tests:    []string{refitOracle, onSimulator, drives, "FuzzMovedBlock"},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "for c, p := range pairs[p0 : p0+w] {",
		new:      "for c, p := range pairs[:w] {", // every panel of the moved fill written with the first panel's moves
		shortcut: blocks,
		// The synthetic landscape's neighbourhoods fit in one panel.
		tests: []string{onSimulator, drives, "FuzzMovedBlock"},
	},
	{
		file:     "internal/core/engine.go",
		old:      "\te.walkDraws(d[:])\n",
		new:      "\te.walkDraws(d[3:])\n", // one of skipWalk's steps not drawn
		shortcut: drawSkips,
		tests:    []string{refitOracle, onSimulator, drives},
	},
	{
		file:     "internal/resource/resource.go",
		old:      "for i := 0; i < s.Jobs-1; i += len(draws) {",
		new:      "for i := 1; i < s.Jobs-1; i += len(draws) {", // SkipRandom one draw short per row
		shortcut: drawSkips,
		tests:    []string{refitOracle, onSimulator, drives},
	},
	{
		file:     "internal/core/engine.go",
		old:      "\tsettled := e.settled\n\te.settled = 0\n",
		new:      "\tsettled := e.settled\n\t// the settled count not reset\n",
		shortcut: narrowing,
		tests:    []string{refitOracle, onSimulator, drives},
	},
	{
		file:     "internal/core/engine.go",
		old:      "e.configPoint(pts, keepR+i, e.work)",
		new:      "e.configPoint(pts, (randoms+i)%t.fresh, e.work)", // the walks laid out at their whole-panel slots
		shortcut: narrowing,
		tests:    []string{refitOracle, onSimulator, drives},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "pick[j] = x[1+nproj+j] // the maximum",
		new:      "pick[j] = x[1+j] // the minimum, under a positive coefficient too",
		shortcut: blockCeiling,
		tests:    []string{refitOracle, onSimulator, drives, "TestBlockCeilingCoversItsCases"},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "_, tail[ext(q)] = extremes(tail[:q])",
		new:      "_, _ = extremes(tail[:q])", // σ's maximum not written
		shortcut: blockCeiling,
		tests:    []string{refitOracle, onSimulator, drives, "TestBlockCeilingCoversItsCases"},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "x[j], x[nproj+j] = extremes(pj)",
		new:      "x[j], _ = extremes(pj)", // a new projection's maximum not written
		shortcut: blockCeiling,
		tests:    []string{refitOracle, onSimulator, drives, "TestBlockCeilingCoversItsCases"},
	},
	{
		file:     "internal/core/engine.go",
		old:      "t.blockIdx, t.blockScore = lo+idx, score",
		new:      "t.blockIdx, t.blockScore = idx, score", // argmaxBlocks drops the block offset
		shortcut: blockCeiling,
		tests:    []string{refitOracle},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "rows[i], rows[n+i] = m.triAt(i, base), 1",
		new:      "rows[i], rows[n+i] = 0, 1", // the walk update without its stored base term
		shortcut: walkUpdate,
		tests:    []string{wide, "TestWalksMatchDense", "FuzzWalks"},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "kpanel[i*w+c] = math.Float64frombits(u &^ uint64(int64(u)>>63))",
		new:      "kpanel[i*w+c] = math.Float64frombits(u)", // the walk update's max(0, ·) clamp dropped
		shortcut: walkUpdate,
		tests:    []string{"TestWalksMatchDense"},
	},
	{
		file:     "internal/core/engine.go",
		old:      "for _, k := range [...]int32{int32(r*jobs + from), int32(r*jobs + to)} {",
		new:      "for _, k := range [...]int32{int32(r*jobs + from)} {", // a move's receiving coordinate left out of the list
		shortcut: walkUpdate,
		tests:    []string{wide},
	},
	{
		file:     "internal/core/engine.go",
		old:      "return gp.Walks{Base: int(e.recs.recs[t.incumbent].row), Moved: moved}",
		new:      "return gp.Walks{Base: int(e.recs.recs[t.top[t.topN-1].slot].row), Moved: moved}", // walks scored from the wrong base row
		shortcut: walkUpdate,
		tests:    []string{wide},
	},
	{
		file:     "internal/stats/rand.go",
		old:      "if lo >= n || lo >= -n%n {",
		new:      "if lo >= 0 || lo >= -n%n {", // Intns' rejection test dropped: every draw accepted
		shortcut: drawBatch,
		tests:    []string{"TestIntnsMatchesIntn"},
	},
	{
		file:     "internal/resource/resource.go",
		old:      "cut := j + 1 + int(off[j])",
		new:      "cut := j + 2 + int(off[j])", // the composition's lazy identity one past
		shortcut: drawBatch,
		tests:    []string{refitOracle, onSimulator, drives, wide, "TestRandomCompositionMatchesSortOracle"},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "v := kxx - near[c-p0]/(kxx+m.jitter) + float64(n+4)*0x1p-48*kxx",
		new:      "v := kxx - near[(c-p0+1)%(p1-p0)]/(kxx+m.jitter) + float64(n+4)*0x1p-48*kxx", // the pass reads the neighbouring column
		shortcut: freshCeilings,
		tests:    []string{refitOracle, onSimulator, drives, ceilings},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "v := kxx - near[c-p0]/(kxx+m.jitter) + float64(n+4)*0x1p-48*kxx",
		new:      "v := kxx - near[c-p0]/kxx + float64(n+4)*0x1p-48*kxx", // the jitter term dropped
		shortcut: freshCeilings,
		tests:    []string{refitOracle, onSimulator, drives, wide, ceilings},
	},
	{
		file:     "internal/linalg/kernels_amd64.s",
		old:      "\tVORPD Y12, Y4, Y4\n\tVORPD Y13, Y5, Y5\n",
		new:      "\t// the NaN mask not taken\n\tVORPD Y13, Y5, Y5\n", // a NaN drops out of the maxima at the next finite row
		shortcut: freshCeilings,
		// No window input or pool point the engine meets makes a
		// cross-covariance NaN; the bound test plants them.
		tests: []string{ceilings},
	},
	{
		file:     "internal/core/engine.go",
		old:      "e.keepBlocks(t.scratch, e.inWindow(next))",
		new:      "e.keepBlocks(t.scratch, false)", // K* dropped after an exploit too
		shortcut: residentState,
		tests:    []string{retention},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "b.epoch, b.kstar, b.tail = 0, nil, nil",
		new:      "b.epoch = 0", // the recycled block keeps the buffers it handed on
		shortcut: residentState,
		tests:    []string{drives, retention},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "b.epoch, b.kstar, b.tail = 0, nil, nil",
		new:      "_ = b // the recycled block keeps its epoch stamp and the storage it handed on",
		shortcut: residentState,
		tests:    []string{onSimulator, drives, retention},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "b.epoch, b.kstar, b.tail = 0, nil, nil",
		new:      "b.epoch, b.kstar = 0, nil // Recycle keeps the tail it handed on",
		shortcut: residentState,
		tests:    []string{retention, "TestShedHandsBackKStarAlone"},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "\tb.kstar = nil\n",
		new:      "\t_ = b // Shed keeps the K* it handed on\n",
		shortcut: residentState,
		tests:    []string{retention, "TestShedHandsBackKStarAlone"},
	},
	{
		file:     "internal/core/engine.go",
		old:      "s.Trim(blk)",
		new:      "_ = s // a kept block never trimmed",
		shortcut: residentState,
		tests:    []string{retention},
	},
	{
		file:     "internal/core/engine.go",
		old:      "case i < e.poolTopN:",
		new:      "case i <= e.poolTopN: // a block outside the top keeps K*",
		shortcut: residentState,
		tests:    []string{retention},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "if cap(buf) <= 2*len(buf) {",
		new:      "if true { // trim trims nothing",
		shortcut: residentState,
		tests:    []string{"TestTrimKeepsABlockNearItsSize"},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "kept := append([]float64(nil), buf...)",
		new:      "kept := make([]float64, len(buf)) // the trimmed data not copied",
		shortcut: residentState,
		tests:    []string{onSimulator, "TestTrimKeepsABlockNearItsSize"},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "\tsp.keep(buf)\n\treturn kept\n",
		new:      "\t_ = buf // the trimmed storage dropped\n\treturn kept\n",
		shortcut: residentState,
		tests:    []string{"TestTrimKeepsABlockNearItsSize"},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "if cap(buf) > cap(sp[at]) {",
		new:      "if sp[at] == nil { // a buffer dropped once three are held",
		shortcut: residentState,
		tests:    []string{"TestSparesKeepTheLargest"},
	},
	{
		file:     "internal/gp/gp.go",
		old:      "b.kstar, b.tail = s.spares.take(b.kstar, n*q), s.tails.take(b.tail, tailLen(q))",
		new:      "b.kstar, b.tail = s.spares.take(b.kstar, n*q), s.spares.take(b.tail, tailLen(q)) // a tail lent a K* spare",
		shortcut: residentState,
		tests:    []string{"TestSparesKeepTheLargest"},
	},
	{
		file:     "internal/core/engine.go",
		old:      "for at = len(e.blocks) - 1; slices.Contains(top, e.blocks[at].rec); at-- {",
		new:      "for at = len(e.blocks) - 1; false; at-- { // a top record's block re-keyed",
		shortcut: blocks,
		tests:    []string{"TestBlockForNeverRekeysATopRecord"},
	},
	{
		file:     "internal/core/engine.go",
		old:      "at, stride := pts.Column(col) // the point's first coordinate",
		new:      "at, stride := pts.Column((col + 1) % pts.Len()) // a fresh winner decoded from the neighbouring column",
		shortcut: residentState,
		tests:    []string{refitOracle, onSimulator, drives, "TestPoolMatchesEagerNeighbours"},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "for d := p.dim - 1; d > 0 && w0 < w1; d-- { // coordinate 0 stays put",
		new:      "for d := p.dim - 1; d > 1 && w0 < w1; d-- { // coordinate 1 left behind too",
		shortcut: residentState,
		tests:    []string{"TestPoolMatchesEagerNeighbours", "TestPointsGrowKeepsThePoints"},
	},
	{
		file:     "internal/core/records.go",
		old:      "r.recs[slot] = record{row: -1, hash: hash(cfg), stamp: r.recs[slot].stamp + 1}",
		new:      "r.recs[slot] = record{row: -1, hash: hash(cfg), stamp: max(r.recs[slot].stamp, 1)} // a reused slot keeps its old stamp",
		shortcut: residentState,
		tests:    []string{pointers},
	},
	{
		file:     "internal/core/records.go",
		old:      "return string(r.appendKey(ka[:0], a)) < string(r.appendKey(kb[:0], b))",
		new:      "return string(r.appendKey(ka[:0], a)) > string(r.appendKey(kb[:0], b)) // the tick-tie key order inverted",
		shortcut: residentState,
		tests:    []string{pointers, sorted, "TestRecordsEviction"},
	},
	{
		file:     "internal/core/records.go",
		old:      "for at > 0 && r.recs[r.order[at-1]].lastTick == r.recs[r.order[at]].lastTick {",
		new:      "for at > len(r.order) && r.recs[r.order[at-1]].lastTick == r.recs[r.order[at]].lastTick { // the tail itself evicted, not its tie group's newest member",
		shortcut: residentState,
		tests:    []string{pointers, sorted, "TestRecordsEviction"},
	},
	{
		file:     "internal/core/records.go",
		old:      "if home := int(r.recs[r.index[j]-1].hash) & mask; (j-home)&mask >= (j-i)&mask {",
		new:      "if home := int(r.recs[r.index[j]-1].hash) & mask; (j-home)&mask > (j-i)&mask { // an entry homed at the hole left behind",
		shortcut: residentState,
		tests:    []string{pointers},
	},
	{
		file:     "internal/core/engine.go",
		old:      "if e.single && e.forcedTicks > 0 {",
		new:      "if false && e.forcedTicks > 0 { // a forced engine weighs and re-records every tick",
		shortcut: forcedSpace,
		tests:    []string{forcedTest, "TestForcedDecideAllocatesNothing", drives},
	},
	{
		file:     "internal/core/engine.go",
		old:      "if e.single && e.forcedTicks > 0 {",
		new:      "if e.single && e.forcedTicks >= 0 { // the first tick cut short too: no weights, no record",
		shortcut: forcedSpace,
		tests:    []string{forcedTest, drives},
	},
}

// TestMutants copies the module (without .git and .bench_build) once and
// runs every row in the copy: the mutant must build, and `go test` of the
// row's tests in internal/{core,gp,stats,resource} must report each of them
// failed. A row whose text does not occur exactly once, that changes more
// than one line, or whose mutant does not build is broken, not a catch.
func TestMutants(t *testing.T) {
	dir := t.TempDir()
	if err := copyModule(root, dir); err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		changed, line := diff(m.old, m.new)
		t.Run(m.shortcut+": "+line, func(t *testing.T) {
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("broken row: %q occurs %d times in %s", m.old, n, m.file)
			}
			if changed != 1 {
				t.Fatalf("broken row: the mutation changes %d lines", changed)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, src, 0o644); err != nil {
					t.Errorf("restoring %s: %v", m.file, err)
				}
			}()
			if out, err := run(dir, "go", "build", "./..."); err != nil {
				t.Fatalf("broken row: the mutant does not build: %v\n%s", err, out)
			}
			out, failed := "", map[string]bool{}
			for pending := m.tests; len(pending) > 0; {
				o, _ := run(dir, "go", "test", "-count=1", "-vet=off", "-timeout=10m", "-v",
					"-run", "^("+strings.Join(pending, "|")+")$", "./internal/core", "./internal/gp", "./internal/stats", "./internal/resource")
				out += o
				for _, f := range failLine.FindAllStringSubmatch(o, -1) {
					failed[f[1]] = true
				}
				// A panic ends its test binary: the named tests it never
				// started run again without the one that panicked.
				started := map[string]bool{}
				for _, r := range runLine.FindAllStringSubmatch(o, -1) {
					started[r[1]] = true
				}
				var rest []string
				for _, name := range pending {
					if !started[name] && !failed[name] {
						rest = append(rest, name)
					}
				}
				if !strings.Contains(o, "panic:") || len(rest) == len(pending) {
					break
				}
				pending = rest
			}
			var missed []string
			for _, name := range m.tests {
				if !failed[name] {
					missed = append(missed, name)
				}
			}
			if len(missed) > 0 {
				t.Fatalf("not caught by %s:\n%s", strings.Join(missed, ", "), out)
			}
			t.Logf("caught by %s", strings.Join(m.tests, ", "))
		})
	}
}

// failLine is go test -v's line for a failed top-level test, runLine the
// one for a top-level test it starts.
var (
	failLine = regexp.MustCompile(`(?m)^--- FAIL: (\w+) `)
	runLine  = regexp.MustCompile(`(?m)^=== RUN\s+(\w+)$`)
)

// diff counts the lines in which new differs from old, a line added or
// removed counting as changed, and returns the first changed line of new.
func diff(old, new string) (changed int, line string) {
	a, b := strings.Split(old, "\n"), strings.Split(new, "\n")
	changed = max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			if changed == 0 {
				line = strings.TrimSpace(b[i])
			}
			changed++
		}
	}
	return changed, line
}

// copyModule copies the module tree at src into dst, leaving out the
// repository and the benchmark's build output.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" {
				return fs.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// run runs a command in dir and returns its combined output.
func run(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		err = fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return string(out), err
}
