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
// basis, neighbourhood blocks (moved fills and shadows), draw-only skips,
// narrowing, the block ceiling, walks filled from their moves, the
// batched draws and the fresh panel's σ ceilings — is held by two broad checks in
// internal/core: the refit oracle, which refits the proxy model from
// scratch after every tick, and its draw-stream check, which rebuilds the
// tick's draws from a copy of the engine's generator (oracle_test.go, fed
// by the seeded random drives). A row is one known bug of one shortcut, as
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
	blocks          = "neighbourhood blocks, moved fills and shadows"
	drawSkips       = "draw-only skips"
	narrowing       = "narrowing"
	blockCeiling    = "block ceiling"
	walkUpdate      = "walks by update"
	drawBatch       = "draws in registers"
	freshCeilings   = "fresh ceilings"
)

// The checks that catch them.
const (
	refitOracle = "TestEngineMatchesRefitOracle"
	onSimulator = "TestEngineMatchesRefitOracleOnSimulator"
	drives      = "TestRandomDrivesMatchOracles"
	wide        = "TestEngineMatchesRefitOracleOnWideSimulator"
	ceilings    = "TestSigmaCeilingBoundsPosterior"
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
		// It panics, which ends the test binary: the first test to meet a
		// third live row is the one to name.
		tests: []string{onSimulator},
	},
	{
		file:     "internal/gp/batch.go",
		old:      "if sh.epoch != m.epoch || len(tail) != tailLen(q) || len(sigma) != q {",
		new:      "if len(tail) != tailLen(q) || len(sigma) != q {", // a shadow revived across epochs
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
		old:      "moved = append(e.randomWalkInto(e.candidateCfg[keepR+i], t.incumbent.Config, walkSteps, moved), -1)",
		new:      "moved = append(e.randomWalkInto(e.candidateCfg[n-keepW+i], t.incumbent.Config, walkSteps, moved), -1)", // the walks laid out last
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
		tests:    []string{refitOracle, drives, "TestBlockCeilingCoversItsCases"},
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
		old:      "return gp.Walks{Base: t.incumbent.row, Moved: moved}",
		new:      "return gp.Walks{Base: t.top[t.topN-1].row, Moved: moved}", // walks scored from the wrong base row
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
			out, _ := run(dir, "go", "test", "-count=1", "-vet=off", "-timeout=10m", "-v",
				"-run", "^("+strings.Join(m.tests, "|")+")$", "./internal/core", "./internal/gp", "./internal/stats", "./internal/resource")
			failed := map[string]bool{}
			for _, f := range failLine.FindAllStringSubmatch(out, -1) {
				failed[f[1]] = true
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

// failLine is go test -v's line for a failed top-level test.
var failLine = regexp.MustCompile(`(?m)^--- FAIL: (\w+) `)

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
