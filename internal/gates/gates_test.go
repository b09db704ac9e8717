// Package gates has no code. Its one test reads the module's own source and
// holds it to the structural invariants the design rests on (DESIGN.md §4,
// §7 and §8): one proxy-model path from window to decision, EI ruling a
// candidate out before it pays for φ, capabilities found through rdt.As,
// one assembly from flags to loop, and the paths those replaced staying
// deleted.
//
// Every gate is a row of data: the files it reads and one check over the
// "shapes" those files contain — imports, identifiers, calls, selectors,
// type assertions (type switches included), composite-literal types,
// range and loop headers, case values, keyed fields, function and
// interface declarations, struct fields with their types, string literals,
// assembly instructions. A
// renamed import reads as its package's name, so `s.New` under
// `import s "satori/internal/sim"` is `sim.New`. Two rows read the module
// type-checked instead: exported declarations and the references that
// resolve to them (exports_test.go), and struct fields with the reads and
// writes that resolve to them (fields_test.go). Each row also carries a small
// known-bad file, read in memory the way the row reads the tree, that its
// check must reject: a gate that cannot fire fails here rather than gating
// nothing.
//
// Nothing here is linked into any binary; `go test ./...` runs it.
package gates

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// root is the module root, seen from this package's directory.
const root = "../.."

// A shape is one thing a file says, as the checks see it.
type shape struct {
	kind string // import, ident, sel, call, assert, lit, range, loop, case, kv, func, interface, member, string, instr, line, file, export, use, field, read or write
	text string
	fn   string // the function declaration it sits in, "" outside one
	at   string // file:line
}

// testFiles says which Go files of a directory a row reads.
type testFiles int

const (
	nonTest testFiles = iota
	withTests
	testsOnly
)

// files names what a row reads.
type files struct {
	paths []string  // files and directories under the root; "dir/..." (or "...") walks a tree
	match string    // regexp on the base name; "" is `\.go$`
	tests testFiles // which Go files count
	skip  []string  // directories a walk leaves out
	deps  string    // instead of paths: every package `go list -deps .` links from this directory, as an import
	// instead of paths: the module's non-test packages, type-checked, read
	// by this method (exports and uses, or fields, reads and writes)
	typed func(*module, []*checked) []shape
}

// A check holds over the shapes of a row's files, or says what breaks it.
type check func([]shape) error

type gate struct {
	name  string
	files files
	check check
	bad   source // a file the check must reject
}

// source is a file held in memory: its name picks the parser.
type source struct{ name, text string }

func goSrc(body string) source  { return source{"bad.go", "package bad\n\n" + body + "\n"} }
func asmSrc(body string) source { return source{"bad_amd64.s", body + "\n"} }

const (
	all = "..."
	// fused is every fused multiply-add or -subtract mnemonic.
	fused = `^VFN?M(ADD|SUB)`
	// scoreAbove is where EI weighs a candidate.
	scoreAbove = "(EI).scoreAbove"
	// solveMatrix is the panel solve behind every pool's σ.
	solveMatrix = "(*Cholesky).SolveLowerMatrixInto"
)

var gates = []gate{
	// Capability and one-record.
	{
		name:  "Capability: found with rdt.As, never asserted outside internal/rdt",
		files: files{paths: []string{all}, skip: []string{"internal/rdt"}},
		check: none("assert", `^(rdt\.)?(Churner|FastSampler|BatchSampler|SLOProvider|Grouper|CLOSLimiter)$`),
		bad:   goSrc(`import r "satori/internal/rdt"; func f(p any) { switch p.(type) { case r.Churner: } }`),
	},
	{
		name:  "One-record: the loop builds the policy's Observation in one place",
		files: files{paths: []string{"internal/control"}, tests: withTests},
		check: exactly(1, "lit", `^policy\.Observation$`),
		bad:   goSrc(`var a, b = policy.Observation{}, &policy.Observation{}`),
	},
	{
		name:  "One-record: time passes through Step and SkipIdle only",
		files: files{paths: []string{all}, tests: withTests},
		check: none("ident", `AdvanceIdle`),
		bad:   goSrc(`func (l *Loop) AdvanceIdle(n int) {}`),
	},
	{
		// sim.Simulator.Step extrapolates whenever that is exact, so the
		// loop keeps no sampling switch and no stability gate of its own.
		name:  "One-record: the loop observes every tick through Platform.Sample",
		files: files{paths: []string{"internal/control"}},
		check: none("ident", `^(SampleFast|SamplingOptions|StableTicks|MaxRun)$`),
		bad:   goSrc(`func (l *Loop) f() { if l.stable >= l.sampling.StableTicks && l.sampledRun < l.sampling.MaxRun { l.fast.SampleFast() } }`),
	},

	// Recency list: core.Records keeps its records in window order.
	{
		name:  "Recency-list: records.go imports neither slices nor sort",
		files: files{paths: []string{"internal/core/records.go"}},
		check: none("import", `^(slices|sort)$`),
		bad:   goSrc(`import "sort"`),
	},
	{
		// The record map is the store's open-addressed key index: probed,
		// never walked.
		name:  "Recency-list: nothing walks the record map",
		files: files{paths: []string{"internal/core/records.go"}},
		check: none("range", `\.index$`),
		bad:   goSrc(`func (r *Records) f() { for i := range r.index { _ = i } }`),
	},

	// Resident state: what a fleet node keeps between its ticks is its search
	// state; the scoring scratch is borrowed per tick, and the factor is
	// packed (DESIGN.md, "What a node holds").
	{
		name:  "Resident-state: no core struct holds a record by pointer; records are slots of the store's arrays",
		files: files{paths: []string{"internal/core"}},
		check: none("member", `^\w+\.\w+ .*\*Record\b`),
		bad:   goSrc(`type Engine struct { modelRecs []*Record; poolTop [3]*Record }`),
	},
	{
		name:  "Resident-state: no core struct keys a map by string; the record store's key index is an array",
		files: files{paths: []string{"internal/core"}},
		check: none("member", `^\w+\.\w+ map\[string\]`),
		bad:   goSrc(`type Records struct { bySig map[string]*Record }`),
	},
	{
		name:  "Resident-state: an engine holds no scoring scratch of its own",
		files: files{paths: []string{"internal/core"}},
		check: none("member", `^Engine\.\w+ .*\bgp\.(PredictScratch|Points)$`),
		bad:   goSrc(`type Engine struct { pointBuf gp.Points; batchScratch gp.PredictScratch }`),
	},
	{
		name:  "Resident-state: an engine keeps no candidate pool and no pool posterior between ticks",
		files: files{paths: []string{"internal/core"}},
		// The initial design is read by the seeding ticks that follow.
		check: only("member", `^Engine\.(\w+ \[\]resource\.Config|(post|mu|sigma)\w* \[\]float64)$`, "Engine.initQueue []resource.Config"),
		bad:   goSrc(`type Engine struct { candidateCfg []resource.Config; postBuf []float64 }`),
	},
	{
		// Blocks and their shadows were two stores: three slots and a ring
		// the slots' tails were copied into and back out of.
		name:  "Resident-state: one block store per engine; no shadow ring, no shadow copy",
		files: files{paths: []string{"internal/..."}},
		check: none("ident", `^(shadowRing|shadowSlots|ShadowBlock)$`),
		bad:   goSrc(`type shadowRing struct{ blks [shadowSlots]gp.Block }`),
	},
	{
		name:  "Resident-state: the Cholesky factor is packed, with no row stride",
		files: files{paths: []string{"internal/linalg"}},
		check: none("member", `^Cholesky\.stride `),
		bad:   goSrc(`type Cholesky struct { n, stride int; l []float64 }`),
	},

	// Row kernels: one column-kernel call per output row.
	{
		name:  "Row-kernel: the per-row kernels and their wrappers are gone",
		files: files{paths: []string{"internal/linalg"}, match: `\.(go|s)$`},
		check: none("ident", `subMul|addMul|addSq|AddScaled|AddSquares`),
		bad:   asmSrc("TEXT ·subMulAVX(SB), NOSPLIT, $0-56\n\tRET"),
	},
	{
		name:  "Row-kernel: the matrix solve makes one kernel call per factor row",
		files: files{paths: []string{"internal/linalg"}},
		check: in(solveMatrix, exactly(1, "sel", `^kern\.`)),
		bad: goSrc(`func (c *Cholesky) SolveLowerMatrixInto(dst, b *Matrix) *Matrix {
	for i := 0; i < c.n; i++ { kern.solveRow(nil, nil, nil, nil, 0); kern.solveRow(nil, nil, nil, nil, 0) }
	return dst
}`),
	},
	{
		name:  "Row-kernel: gp's distance fills go four window rows per kernel call; only the solved panel's norms take one row",
		files: files{paths: []string{"internal/gp"}},
		check: exactly(1, "call", `^linalg\.SquaredDistancesInto$`),
		bad: goSrc(`func fill(dst, pt []float64, xs [][]float64) {
	for i, x := range xs { linalg.SquaredDistancesInto(dst[i*4:i*4+4], pt, x) }
	linalg.SquaredDistancesInto(dst, pt, xs[0])
}`),
	},
	{
		name:  "Row-kernel: no loop over k around the solve's kernel call",
		files: files{paths: []string{"internal/linalg"}},
		check: in(solveMatrix, none("loop", `^k$`)),
		bad: goSrc(`func (c *Cholesky) SolveLowerMatrixInto(dst, b *Matrix) *Matrix {
	for i := 0; i < c.n; i++ { for k := 0; k < i; k++ { kern.solveRow(nil, nil, nil, nil, 0) } }
	return dst
}`),
	},

	// Ceilings: EI rules a candidate out before it pays for φ.
	{
		name:  "Ceiling: EI tests its ceiling before it evaluates the normal density",
		files: files{paths: []string{"internal/bo"}},
		check: in(scoreAbove, before("call", `^eiCeiling$`, `^stdNormPDF$`)),
		bad: goSrc(`func (a EI) scoreAbove(mu, sigma, best, floor float64) (float64, bool) {
	pdf := stdNormPDF(mu)
	if eiCeiling(mu, best, sigma) <= floor { return 0, false }
	return pdf, true
}`),
	},

	// The window's posterior means are y − jitter·α, read off the goal
	// basis's α: no Gram matrix is kept, no point is evaluated alone.
	{
		name:  "Window-means: closed form off alpha, no kept Gram matrix",
		files: files{paths: []string{"internal/..."}},
		check: none("ident", `^(PredictMeanAt|kbuf|resizeGram)$`),
		bad:   goSrc(`func f(m *gp.Incremental) float64 { m.resizeGram(4); return m.PredictMeanAt(nil) }`),
	},

	// Lazy pool: a neighbourhood is described, not built.
	{
		name:  "Lazy-pool: the eager neighbour enumeration is a test oracle only",
		files: files{paths: []string{"internal/core"}},
		check: none("ident", `appendManagedNeighbors`),
		bad:   goSrc(`func appendManagedNeighbors() {}`),
	},
	{
		name:  "Lazy-pool: cut points come out of a bitset, not a sort",
		files: files{paths: []string{"internal/resource/resource.go"}},
		check: none("ident", `sortInts`),
		bad:   goSrc(`func f(a []int) { sortInts(a) }`),
	},

	// Policy table: names resolve in internal/harness's registry.
	{
		name:  "Policy-table: no switch on a policy name outside the registry",
		files: files{paths: []string{"cmd/...", ".", "internal/fleet", "internal/server"}, tests: withTests},
		check: none("case", `^"(parties|dcat|copart|lfoc)"$`),
		bad:   goSrc(`func f(s string) { switch s { case "lfoc": } }`),
	},
	{
		name:  "Policy-table: the root package builds a baseline by name, not by constructor",
		files: files{paths: []string{"."}},
		check: only("func", `^New\w*Policy`, "NewSatoriPolicy", "NewClusteredSatoriPolicy", "NewPolicyByName"),
		bad:   goSrc(`func NewRandomPolicy(seed uint64) {}`),
	},

	// One assembly: flags to loop is internal/stack.
	{
		name:  "One-assembly: the two mains build nothing internal/stack builds",
		files: files{paths: []string{"cmd/satori", "cmd/satorid"}, tests: withTests},
		check: none("sel", `^(sim\.New|rdt\.NewSimPlatform|rdt\.NewFaultInjector|rdt\.NewResctrlPlatform\w*|rdt\.ParseFaultScript|rdt\.LoadTraceSampler|control\.New)$`),
		bad:   goSrc(`import s "satori/internal/sim"; var m = s.New(nil)`),
	},
	{
		name:  "One-assembly: the two mains import none of the stack's parts",
		files: files{paths: []string{"cmd/satori/main.go", "cmd/satorid/main.go"}},
		check: none("import", `^satori/internal/(sim|control|harness|workloads|resource)$`),
		bad:   goSrc(`import _ "satori/internal/control"`),
	},
	{
		name:  "One-assembly: the benchmark does not link internal/stack (flag, os)",
		files: files{deps: "benchmark"},
		check: none("import", `^satori/internal/stack$`),
		bad:   goSrc(`import _ "satori/internal/stack"`),
	},
	{
		name:  "One-assembly: no -sampled flag; a session built from flags evaluates every tick as sim.Simulator.Step chooses",
		files: files{paths: []string{"internal/stack", "cmd/satori", "cmd/satorid"}, tests: withTests},
		check: none("string", `^-?sampled$`),
		bad:   goSrc(`import "flag"; var sampled = flag.Bool("sampled", false, "extrapolate phase-stable ticks")`),
	},
	{
		// This file names the variable in its own known-bad snippet.
		name:  "One-assembly: a worker count is a flag, never the environment",
		files: files{paths: []string{all}, tests: withTests, skip: []string{"internal/gates"}},
		check: none("string", `SATORI_PARALLEL`),
		bad:   goSrc(`import "os"; var v = os.Getenv("SATORI_PARALLEL")`),
	},

	// One job per binary: satori runs a session, fleet runs a fleet, and
	// mixes is the one command-line producer of profile JSON.
	{
		name:  "One-job: no -sweep-shards or -dump-profiles flag in cmd/",
		files: files{paths: []string{"cmd/..."}, tests: withTests},
		check: none("string", `sweep-shards|dump-profiles`),
		bad:   goSrc(`import "flag"; var dump = flag.String("dump-profiles", "", "write a suite's profiles and exit")`),
	},
	{
		name:  "One-job: a shard sweep is one fleet run per k, not a library API",
		files: files{paths: []string{all}, tests: withTests},
		check: none("ident", `^(SweepShards|WriteShardSweep|ShardSweepRow)$`),
		bad:   goSrc(`type ShardSweepRow struct{ Shards int }`),
	},
	{
		name:  "One-job: the resctrl writer addresses cache domain 0 and takes no CacheID",
		files: files{paths: []string{"internal/rdt"}, tests: withTests},
		check: none("ident", `^CacheID$`),
		bad:   goSrc(`type ResctrlWriter struct{ Root string; CacheID int }`),
	},

	// Experiment table: a figure is a row of harness.Experiments().
	{
		name:  "Experiment-table: no per-figure driver function beside the table",
		files: files{paths: []string{"internal/harness"}},
		check: none("func", `^Run(Fig|Ablation|Scalability|CLITE|MixChange|SLO|Cluster|Replication|Overhead|SpaceSize)`),
		bad:   goSrc(`func RunFig7() {}`),
	},
	{
		name:  "Experiment-table: one place builds a Report",
		files: files{paths: []string{"internal/harness"}},
		check: exactly(1, "lit", `\bReport$`),
		bad:   goSrc(`var a, b = Report{}, &Report{}`),
	},
	{
		name:  "Experiment-table: one place resolves ExpOptions defaults",
		files: files{paths: []string{"internal/harness"}, match: `^(experiments.*|replication)\.go$`},
		check: exactly(1, "call", `\.fill$`),
		bad:   goSrc(`func f(o ExpOptions) { o.fill(); o.fill() }`),
	},
	{
		name:  "Experiment-table: one place hands the cell cache to a SuiteSpec",
		files: files{paths: []string{"internal/harness"}, match: `^(experiments.*|replication)\.go$`},
		check: exactly(1, "sel", `^opt\.Cache$`),
		bad:   goSrc(`func f(opt ExpOptions) { _, _ = opt.Cache, opt.Cache }`),
	},
	{
		name:  "Commands: none opens the suite cell cache, whose key misses changed draws (ROADMAP 17)",
		files: files{paths: []string{"cmd/..."}},
		check: none("call", `^harness\.NewCellCache$`),
		bad:   goSrc(`func f() { harness.NewCellCache(".cache") }`),
	},
	{
		name:  "Experiment-table: one place hands the worker count to a SuiteSpec",
		files: files{paths: []string{"internal/harness"}, match: `^(experiments.*|replication)\.go$`},
		check: exactly(1, "kv", `^Workers: opt\.Workers$`),
		bad:   goSrc(`func f(opt ExpOptions) { _, _ = SuiteSpec{Workers: opt.Workers}, SuiteSpec{Workers: opt.Workers} }`),
	},
	{
		name:  "Experiment-table: the committed output artefact is gone",
		files: files{paths: []string{"."}, match: `.`},
		check: none("file", `^experiments_full`),
		bad:   source{"experiments_full.txt", ""},
	},
	{
		name:  "Experiment-table: the docs point at the command, not the artefact",
		files: files{paths: []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"}, match: `\.md$`},
		check: none("line", `experiments_full`),
		bad:   source{"BAD.md", "See experiments_full.txt."},
	},
	{
		// This file names the artefact in its own known-bad snippets.
		name:  "Experiment-table: no code reads or writes the artefact",
		files: files{paths: []string{all}, tests: withTests, skip: []string{"internal/gates"}},
		check: none("string", `experiments_full`),
		bad:   goSrc(`const out = "experiments_full.txt"`),
	},

	// One model path: gp.Fit and one-candidate scoring are test oracles.
	{
		name:  "One-model-path: no option selects the from-scratch refit",
		files: files{paths: []string{all}, tests: withTests},
		check: none("ident", `FullRefit`),
		bad:   goSrc(`type Options struct{ FullRefit bool }`),
	},
	{
		name:  "One-model-path: no second proxy model",
		files: files{paths: []string{all}},
		check: none("ident", `proxyModel`),
		bad:   goSrc(`type proxyModel interface{}`),
	},
	{
		name:  "One-model-path: no one-candidate suggestion",
		files: files{paths: []string{all}},
		check: none("call", `^bo\.Suggest$`),
		bad:   goSrc(`import b "satori/internal/bo"; var x = b.Suggest(nil)`),
	},
	{
		name:  "One-model-path: no one-candidate posterior",
		files: files{paths: []string{all}},
		check: none("call", `\.PredictInto$`),
		bad:   goSrc(`func f(m *gp.Incremental) { m.PredictInto(nil, nil) }`),
	},
	{
		name:  "One-model-path: Matérn 5/2 is gp's only kernel, a type, not an interface",
		files: files{paths: []string{"internal/gp"}},
		check: none("interface", `^Kernel$`),
		bad:   goSrc(`type Kernel interface{ Eval(a, b []float64) float64 }`),
	},
	{
		name:  "One-model-path: no second kernel",
		files: files{paths: []string{"internal/gp"}},
		check: none("ident", `Matern32|RBF`),
		bad:   goSrc(`type Matern32 struct{}`),
	},
	{
		name:  "One-model-path: nothing asks which kernel it holds",
		files: files{paths: []string{"internal/gp"}},
		check: none("assert", `^(gp\.)?Matern52$`),
		bad:   goSrc(`func f(k any) bool { _, ok := k.(Matern52); return ok }`),
	},
	{
		name:  "One-model-path: the pool scorer is *gp.Incremental, not a seam",
		files: files{paths: []string{"internal/..."}, tests: withTests},
		check: none("ident", `BatchModel`),
		bad:   goSrc(`type BatchModel interface{}`),
	},

	// Assembly: the column kernels round as the Go loops do; the Matérn
	// transform replays math.Exp's fused branch (src/math/exp_amd64.s).
	{
		name:  "Assembly: a fused multiply-add rounds once, so the column kernels use none",
		files: files{paths: []string{"internal/linalg/kernels_amd64.s"}, match: `\.s$`},
		check: none("instr", fused),
		bad:   asmSrc("\tVFMADD231PD Y1, Y2, Y3"),
	},
	{
		name:  "Assembly: the Matérn transform's two fused reductions",
		files: files{paths: []string{"internal/linalg/matern_amd64.s"}, match: `\.s$`},
		check: exactly(2, "instr", `^VFNMADD231PD$`),
		bad:   asmSrc("\tVFNMADD231PD Y1, Y2, Y3\n\tVFNMADD231PD Y4, Y2, Y3\n\tVFNMADD231PD Y5, Y2, Y3"),
	},
	{
		name:  "Assembly: the Matérn transform's eight fused Horner and squaring steps",
		files: files{paths: []string{"internal/linalg/matern_amd64.s"}, match: `\.s$`},
		check: exactly(8, "instr", `^VFMADD213PD$`),
		bad:   asmSrc("\tVFMADD213PD Y1, Y2, Y3 // one of eight"),
	},
	{
		name:  "Assembly: the Matérn transform fuses nothing else",
		files: files{paths: []string{"internal/linalg/matern_amd64.s"}, match: `\.s$`},
		check: exactly(10, "instr", fused),
		bad:   asmSrc(strings.Repeat("\tVFMADD213PD Y1, Y2, Y3\n", 8) + strings.Repeat("\tVFNMADD231PD Y1, Y2, Y3\n", 2) + "\tVFMSUB213PD Y1, Y2, Y3"),
	},

	// The oracles that hold each fast path to the code it replaced.
	{
		name: "Oracles: the reference tests still exist",
		files: files{paths: []string{"internal/linalg", "internal/core", "internal/resource", "internal/bo",
			"internal/gp", "internal/policies/oracle", "internal/sim", "internal/harness"}, tests: testsOnly},
		check: each("func",
			"TestColumnKernelsMatchPortable", "TestSolveLowerMatrixSameUnderBothKernels", "TestGPScoringSameUnderBothKernels",
			"TestSolveLowerMatrixColumnsMatchVectorSolveUnderBothKernels",
			"TestMaternTransformMatchesPortable", "TestMaternTransformSelection", "TestMatern52RowMatchesEval", "FuzzMatern52Row",
			"TestPoolMatchesEagerNeighbours", "TestRandomCompositionMatchesSortOracle",
			"TestEICeilingBoundsComputedScore", "FuzzEICeiling", "TestArgmaxEIPruneMatchesScore", "FuzzArgmaxEI",
			"TestSigmaCeilingBoundsPosterior",
			"TestEngineMatchesRefitOracle", "TestEngineMatchesRefitOracleOnSimulator", "TestRandomDrivesMatchOracles", "(*refitOracle).stream", "(*refitOracle).bound",
			"TestSearchMatchesReference", "TestSearchAllocatesPerSearchOnly", "TestPolicyCacheSeesReplacedJob",
			"TestExactJobIPSMatchesExactIPS", "TestAppendPhaseKey",
			"TestTriangleMatchesFit", "TestEngineStatsAddUp", "TestCellCacheRerunsEmptyCell",
			"FuzzMovedBlock", "FuzzGoalBasis",
			"TestRecordsMatchSortedOracle", "TestRecordsMatchPointerStore", "TestForcedDecideAllocatesNothing", "TestConfigAppendKeyMatchesKey",
			"TestSkipRandomMatchesRandomInto", "FuzzSkipRandom",
			"FuzzBlockMeanCeiling", "TestBlockCeilingCoversItsCases",
			"TestPackedFactorMatchesSquareReference", "TestInterleavedEnginesShareTheScratch",
			"TestBlocksKeepKStarOnlyForAWindowDecision", "TestInitialSetMatchesNeighbors", "TestConfigRowsShareNoStorage"),
		bad: goSrc(`func TestColumnKernelsMatchPortableRenamed(t *testing.T) {}`),
	},

	// The mutation table (mutants_test.go, run under -tags mutants) attacks
	// each of the engine's scoring-path shortcuts with at least one row.
	{
		name:  "Mutants: the mutation table attacks every shortcut",
		files: files{paths: []string{"internal/gates/mutants_test.go"}, tests: testsOnly},
		check: each("kv", "shortcut: windowDistances", "shortcut: goalBasis", "shortcut: blocks",
			"shortcut: drawSkips", "shortcut: narrowing", "shortcut: blockCeiling", "shortcut: walkUpdate", "shortcut: drawBatch",
			"shortcut: freshCeilings", "shortcut: residentState", "shortcut: forcedSpace"),
		bad: goSrc(`var rows = []mutant{{shortcut: windowDistances}, {shortcut: goalBasis}, {shortcut: blocks}, {shortcut: drawSkips}, {shortcut: narrowing}, {shortcut: blockCeiling}}`),
	},

	// Every export earns a production caller (exports_test.go).
	{
		name:  "Every export earns a production caller",
		files: files{typed: (*module).exportShapes},
		check: used(unreferenced),
		bad:   source{"bad.go", "package satori\n\nfunc Dead() {}\n"},
	},

	// Every field read has a production writer (fields_test.go).
	{
		name:  "Every field read has a production writer",
		files: files{typed: (*module).fieldShapes},
		check: written(unwritten),
		bad:   goSrc(`type T struct{ off bool }; func (t *T) F() bool { return t.off }`),
	},
}

// unreferenced is the exports row's allowlist: exports no production code
// references, each with the reason it stays. benchmark/ is frozen (ROADMAP
// standing rule 1), so what it calls stays. A name of the root package stays for one of two reasons
// only: the benchmark compiles against it, or a code sample of README.md
// or doc.go uses it, named by line.
var unreferenced = map[string]string{
	// Called only by the frozen benchmark.
	"satori.NewSatoriPolicy":             "benchmark/workload.go builds the default nodes' policy through a tracing wrapper",
	"satori.NewClusteredSatoriPolicy":    "benchmark/workload.go builds node_clustered's policy",
	"satori.(*Session).AddWorkload":      "benchmark/probes.go times one membership change (control.churn_op_us)",
	"satori.(*Session).RemoveWorkload":   "benchmark/probes.go times one membership change (control.churn_op_us)",
	"satori.(*Session).NumJobs":          "benchmark/probes.go picks which membership change to time",
	"bo.SuggestBatch":                    "benchmark/probes.go times the acquisition pass",
	"core.(*Records).Window":             "benchmark/probes.go reads the proxy-model window",
	"core.(*Record).Objective":           "benchmark/probes.go reconstructs the window's targets",
	"gp.(*Incremental).PredictMean":      "benchmark/probes.go times the window means",
	"gp.(*Incremental).Jitter":           "benchmark/probes.go rebuilds the kernel matrix",
	"gp.(*Incremental).Kernel":           "benchmark/probes.go rebuilds the kernel matrix",
	"cluster.(*Partitioner).Inner":       "benchmark/workload.go digs the engine out of the clustered policy",
	"cluster.(*Partitioner).Grouping":    "benchmark/workload.go builds the clustered engine's space",
	"core.(*Engine).AcquisitionFailures": "benchmark/layers.go reports core.acq_failures",
	"core.(*Engine).FitFailures":         "benchmark/layers.go reports core.fit_failures",
	"fleet.(*Cluster).Run":               "benchmark/workload.go warms the fleet workloads",
	"harness.SatoriStaticFactory":        "benchmark/workload_suite.go builds suite_fig7's static rows",
	"harness.NewCellCache":               "benchmark/workload_suite.go times a warm cache pass (harness.cache_warm_s); cache.go goes after the [benchmark] bundle (ROADMAP 17)",
	"rdt.CLOSLimiter":                    "benchmark/interpose.go forwards the capability",
	"resource.(*Space).Neighbors":        "benchmark/probes.go builds its scoring pool from the window's neighbourhoods; InitialSet stops building them once its set is full",
	// Used by a code sample of the documentation.
	"satori.SuiteLC": "README.md's latency-critical sample, line 105",
	// Reference implementations the fast paths are tested against.
	"gp.Fit":                             "the from-scratch refit every gp and core oracle compares with",
	"gp.(*GP).Predict":                   "the per-point posterior the batched routines are tested against",
	"gp.(*Incremental).PredictBlockInto": "the dense fill FuzzMovedBlock, TestBlockCeilingCoversItsCases and the DenseBlock72/MovedBlock72 gate hold the moved fill to",
	"gp.(*Incremental).UpdateTargets":    "benchmark/probes.go times it (gp.update_targets_us); the SolvedTargets64 gate holds the goal basis to it",
	// Read only by tests, and by a test outside the package where no other
	// API shows the same state.
	"rdt.WriteIPSTrace":           "FuzzReadIPSTrace's round-trip writer",
	"core.(*Engine).Stats":        "TestEngineStatsAddUp (an Oracles row) and ROADMAP item 2's decision record",
	"resource.MustNewSpace":       "the shared test constructor of six packages' tests",
	"rdt.(*SimPlatform).Plan":     "TestClusteredPolicyGroupsThroughInjector, TestRunSurvivesHeldTicks and TestRandomOpsLedgerAndInvariants count the compiled control groups",
	"resource.(*Space).Imbalance": "core's TestEngineSeedsWithInitialSet bounds the initial samples; its synthetic fairness reads it",
	"control.(*Loop).Isolated":    "TestChurnReinitIncremental reads the baselines churn re-measured, before any Status shows them",
	"policy/policytest.Scribble":  "control's, harness's and fleet's UnderScribblingPolicy tests hold their callers to policy.Policy's contract with it",
}

// unwritten is the fields row's allowlist: fields non-test code reads and
// only tests, or the frozen benchmark, write, each with the reason it stays.
// A field no test needs goes, with the branches that read it.
var unwritten = map[string]string{
	// Set only by the frozen benchmark (ROADMAP standing rule 1). Two
	// names it reaches are in neither list, being read by nothing and
	// called by nothing: satori.SessionConfig.Sampled and
	// rdt.FastSampler.SampleFast (benchmark/workload.go sets the one,
	// benchmark/interpose.go forwards the other) — frozen benchmark; the
	// bundle deletes them.
	"satori.SessionConfig.SLOGoalSwitch": "benchmark/workload.go and bench_test.go's latency-critical sessions set it",
	"fleet.Options.WrapPlatform":         "benchmark/workload.go traces the fleet workloads' platforms; fleet's shard and random-ops tests inject faults through it",
	"fleet.Options.WrapPolicy":           "TestFleetUnderScribblingPolicy wraps every node's policy with policytest.Scribble",
	// Set by tests whose coverage would go with it.
	"core.Options.Xi":                    "TestEngineMatchesRefitOracle and TestRandomDrivesMatchOracles vary ξ",
	"gp.Options.Kernel":                  "gp's, bo's and linalg's tests pin the hyperparameters with it",
	"control.Options.BaselineResetTicks": "control's loop, idle, resilience and random-ops tests shorten the baseline refresh with it (TestLoopPeriodicBaselineRefresh holds the schedule)",
	"cluster.Options.Classifier":         "control's random-ops model sets a quick classifier, so jobs migrate between churns",
	"harness.RunSpec.Faults":             "TestRunSurvivesTransientResetFailure and TestRunSurvivesHeldTicks set it",
	"harness.ExpOptions.Cache":           "cache_test.go runs experiments through the cache; it goes with cache.go (ROADMAP 17)",
	"fleet.StreamOptions.MaxJobs":        "the FleetTick* benchmarks behind CI's fleet gates set it",
	"rdt.SimPlatform.maxCLOS":            "rdt's cluster and fault tests emulate a CLOS budget with it",
	"rdt.FaultScript.ApplyErrorRate":     "the random-ops, resilience and soak tests set it",
	"rdt.FaultScript.MeasureErrorRate":   "the random-ops, resilience and soak tests set it",
	"rdt.FaultScript.ResyncErrorRate":    "the random-ops, resilience and soak tests set it",
	"rdt.FaultScript.SampleCorruptRate":  "the random-ops, resilience and soak tests set it",
	"rdt.FaultScript.SampleErrorRate":    "the random-ops, resilience and soak tests set it",
	// Set by tests only, the program taking their defaults (if o.X <= 0
	// { o.X = d } is no writer).
	"core.Options.Candidates":                    "the wide-simulator oracle test scores 48 and 80 candidates; TestPoolMatchesEagerNeighbours panels of 31 to 65",
	"core.Options.ExploitThreshold":              "the refit oracle varies the threshold; the incremental and random-drive tests explore every tick with −1",
	"core.Options.InitialSamples":                "the engine and incremental tests seed short windows with it",
	"cluster.ClassifierOptions.ReclassifyEvery":  "cluster's classifier tests and control's random-ops model set a quick classifier",
	"cluster.ClassifierOptions.MinSamples":       "cluster's classifier tests and control's random-ops model set a quick classifier",
	"cluster.ClassifierOptions.Hysteresis":       "cluster's classifier tests and control's random-ops model set a quick classifier",
	"control.ResilienceOptions.MaxRetries":       "the resilience and random-ops tests bound the retries",
	"control.ResilienceOptions.BackoffBase":      "the resilience tests shorten the backoff",
	"control.ResilienceOptions.BreakerThreshold": "the resilience and random-ops tests trip the breaker early",
	"fleet.StreamOptions.DurationMin":            "benchmark/workload.go's fleet_churn stream and fleet's shard, bench, random-ops and determinism tests bound the service times",
	"fleet.StreamOptions.DurationMax":            "benchmark/workload.go's fleet_churn stream and fleet's shard, bench, random-ops and determinism tests bound the service times",
	"fleet.StreamOptions.Seed":                   "fleet.New derives it from Options.Seed; fleet_test's NewJobStream case seeds a bare stream",
	"policies/copart.Options.EpochTicks":         "copart's tests shorten the epoch",
	"policies/copart.Options.SlowdownGap":        "copart's tests set the gap",
	"policies/dcat.Options.EpochTicks":           "dcat's tests shorten the epoch",
	"policies/dcat.Options.IdleEpochs":           "dcat's tests shorten the idle wait",
	"policies/parties.Options.EpochTicks":        "parties' tests shorten the epoch",
	"policies/parties.Options.IdleEpochs":        "parties' tests shorten the idle wait",
	"policies/oracle.Options.ExactLimit":         "the oracle's reference and hill-climb tests force the climb with it",
	"policies/oracle.Options.Probes":             "the oracle's reference and allocation tests vary the probe count",
}

// TestGates runs every row over the tree, then over its known-bad file.
func TestGates(t *testing.T) {
	cache := map[string][]shape{}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			ss, err := g.files.shapes(cache)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.check(ss); err != nil {
				t.Error(err)
			}
			bad, err := g.files.parse(g.bad)
			if err != nil {
				t.Fatalf("known-bad %s does not parse: %v", g.bad.name, err)
			}
			if g.check(bad) == nil {
				t.Errorf("accepts its known-bad %s:\n%s", g.bad.name, g.bad.text)
			}
		})
	}
}

// none: no shape of the kind matches re.
func none(kind, re string) check {
	return func(ss []shape) error {
		if hits := matching(ss, kind, re); len(hits) > 0 {
			return fmt.Errorf("%s matching %s: %s", kind, re, list(hits))
		}
		return nil
	}
}

// exactly: n shapes of the kind match re.
func exactly(n int, kind, re string) check {
	return func(ss []shape) error {
		if hits := matching(ss, kind, re); len(hits) != n {
			return fmt.Errorf("want %d %s matching %s, found %d: %s", n, kind, re, len(hits), list(hits))
		}
		return nil
	}
}

// only: every shape of the kind matching re is one of the names.
func only(kind, re string, names ...string) check {
	return func(ss []shape) error {
		var extra []hit
		for _, h := range matching(ss, kind, re) {
			if !slices.Contains(names, h.text) {
				extra = append(extra, h)
			}
		}
		if len(extra) > 0 {
			return fmt.Errorf("%s matching %s other than %s: %s", kind, re, strings.Join(names, ", "), list(extra))
		}
		return nil
	}
}

// each: every name is the text of a shape of the kind.
func each(kind string, names ...string) check {
	return func(ss []shape) error {
		seen := map[string]bool{}
		for _, s := range ss {
			if s.kind == kind {
				seen[s.text] = true
			}
		}
		var missing []string
		for _, name := range names {
			if !seen[name] {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("no %s %s", kind, strings.Join(missing, ", "))
		}
		return nil
	}
}

// before: the first shape of the kind matching a comes before the first
// matching b, and both occur.
func before(kind, a, b string) check {
	return func(ss []shape) error {
		as, bs := matching(ss, kind, a), matching(ss, kind, b)
		if len(as) == 0 || len(bs) == 0 {
			return fmt.Errorf("want a %s matching %s before one matching %s, found %d and %d", kind, a, b, len(as), len(bs))
		}
		if as[0].index >= bs[0].index {
			return fmt.Errorf("%s %s comes after %s", kind, as[0], bs[0])
		}
		return nil
	}
}

// in: c holds over the shapes inside function fn, which must exist.
func in(fn string, c check) check {
	return func(ss []shape) error {
		var body []shape
		for _, s := range ss {
			if s.fn == fn {
				body = append(body, s)
			}
		}
		if len(body) == 0 {
			return fmt.Errorf("no function %s", fn)
		}
		if err := c(body); err != nil {
			return fmt.Errorf("in %s: %w", fn, err)
		}
		return nil
	}
}

// hit is a matching shape and where it stands among the shapes checked.
type hit struct {
	shape
	index int
}

func (h hit) String() string { return h.at + " " + h.text }

func matching(ss []shape, kind, re string) []hit {
	r := regexp.MustCompile(re)
	var hits []hit
	for i, s := range ss {
		if s.kind == kind && r.MatchString(s.text) {
			hits = append(hits, hit{s, i})
		}
	}
	return hits
}

// list names the first ten hits and counts the rest.
func list(hits []hit) string {
	var out []string
	for i, h := range hits {
		if i == 10 {
			out = append(out, fmt.Sprintf("and %d more", len(hits)-i))
			break
		}
		out = append(out, h.String())
	}
	return strings.Join(out, "; ")
}

// shapes reads the row's files, each parsed at most once per run.
func (f files) shapes(cache map[string][]shape) ([]shape, error) {
	if f.typed != nil {
		m, err := loadModule()
		if err != nil {
			return nil, err
		}
		return f.typed(m, m.checked()), nil
	}
	if f.deps != "" {
		cmd := exec.Command("go", "list", "-deps", ".")
		cmd.Dir = filepath.Join(root, f.deps)
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -deps . in %s: %w", f.deps, err)
		}
		var ss []shape
		for _, p := range strings.Fields(string(out)) {
			ss = append(ss, shape{kind: "import", text: p, at: "go list -deps . in " + f.deps})
		}
		return ss, nil
	}
	names, err := f.list()
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%v matching %q: no file to read", f.paths, f.match)
	}
	var ss []shape
	for _, name := range names {
		if _, ok := cache[name]; !ok {
			src, err := read(name)
			if err != nil {
				return nil, err
			}
			if cache[name], err = shapesOf(name, src); err != nil {
				return nil, err
			}
		}
		ss = append(ss, cache[name]...)
	}
	return ss, nil
}

// parse reads a known-bad file the way the row reads the tree: a typed
// row reads the module with the file as one more package of it.
func (f files) parse(src source) ([]shape, error) {
	if f.typed == nil {
		return shapesOf(src.name, []byte(src.text))
	}
	m, err := loadModule()
	if err != nil {
		return nil, err
	}
	pkgs, err := m.withSnippet(src)
	if err != nil {
		return nil, err
	}
	return f.typed(m, pkgs), nil
}

// list names the row's files, relative to the root.
func (f files) list() ([]string, error) {
	match := regexp.MustCompile(cmp.Or(f.match, `\.go$`))
	skip := map[string]bool{}
	for _, s := range f.skip {
		skip[s] = true
	}
	var names []string
	keep := func(name string) {
		base := path.Base(name)
		isTest := strings.HasSuffix(base, "_test.go")
		if match.MatchString(base) && (f.tests == withTests || isTest == (f.tests == testsOnly)) {
			names = append(names, name)
		}
	}
	for _, p := range f.paths {
		dir, walk := strings.CutSuffix(p, "...")
		dir = cmp.Or(strings.TrimSuffix(dir, "/"), ".")
		info, err := os.Stat(filepath.Join(root, dir))
		if err != nil {
			return nil, err
		}
		switch {
		case !info.IsDir():
			keep(dir)
		case walk:
			err = fs.WalkDir(os.DirFS(root), dir, func(name string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				base := d.Name()
				if d.IsDir() && name != dir && (strings.HasPrefix(base, ".") || base == "testdata" || skip[name]) {
					return fs.SkipDir
				}
				if !d.IsDir() {
					keep(name)
				}
				return nil
			})
		default:
			var entries []fs.DirEntry
			entries, err = os.ReadDir(filepath.Join(root, dir))
			for _, e := range entries {
				if !e.IsDir() {
					keep(path.Join(dir, e.Name()))
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}

// read returns a file's text, or nothing for a file only its name matters for.
func read(name string) ([]byte, error) {
	switch path.Ext(name) {
	case ".go", ".s", ".md":
		return os.ReadFile(filepath.Join(root, name))
	}
	return nil, nil
}

// shapesOf parses one file by its extension: Go, Go assembly, or text read
// line by line (.md). Any other file is only its name.
func shapesOf(name string, src []byte) ([]shape, error) {
	ss := []shape{{kind: "file", text: path.Base(name), at: name}}
	switch path.Ext(name) {
	case ".go":
		g, err := goShapes(name, src)
		return append(ss, g...), err
	case ".s":
		return append(ss, asmShapes(name, src)...), nil
	case ".md":
		for i, line := range strings.Split(string(src), "\n") {
			ss = append(ss, shape{kind: "line", text: line, at: fmt.Sprintf("%s:%d", name, i+1)})
		}
	}
	return ss, nil
}

func goShapes(name string, src []byte) ([]shape, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var ss []shape
	fn := ""
	add := func(kind, text string, n ast.Node) {
		p := fset.Position(n.Pos())
		ss = append(ss, shape{kind, text, fn, fmt.Sprintf("%s:%d", name, p.Line)})
	}
	str := types.ExprString

	// A renamed import reads as its package's name.
	alias := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value) // the parser accepted it as a string
		add("import", p, im)
		if im.Name != nil && im.Name.Name != "_" && im.Name.Name != "." {
			alias[im.Name.Name] = path.Base(p)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if x, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := x.X.(*ast.Ident); ok && alias[id.Name] != "" {
				id.Name = alias[id.Name]
			}
		}
		return true
	})

	// header records every identifier of a loop's header.
	header := func(parts ...ast.Node) {
		for _, part := range parts {
			if part == nil {
				continue
			}
			ast.Inspect(part, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					add("loop", id.Name, id)
				}
				return true
			})
		}
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.FuncDecl); ok {
				fn = ""
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn = n.Name.Name
			if n.Recv != nil && len(n.Recv.List) > 0 {
				fn = "(" + str(n.Recv.List[0].Type) + ")." + fn
			}
			add("func", fn, n)
		case *ast.Ident:
			add("ident", n.Name, n)
		case *ast.SelectorExpr:
			add("sel", str(n), n)
		case *ast.CallExpr:
			add("call", str(n.Fun), n)
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				add("assert", str(n.Type), n)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range n.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					add("assert", str(e), e)
				}
			}
		case *ast.CaseClause:
			if _, ok := stack[len(stack)-3].(*ast.TypeSwitchStmt); !ok {
				for _, e := range n.List {
					add("case", str(e), e)
				}
			}
		case *ast.CompositeLit:
			if n.Type != nil {
				add("lit", str(n.Type), n)
			}
		case *ast.KeyValueExpr:
			add("kv", str(n.Key)+": "+str(n.Value), n)
		case *ast.RangeStmt:
			add("range", str(n.X), n)
			header(n.Key, n.Value, n.X)
		case *ast.ForStmt:
			header(n.Init, n.Cond, n.Post)
		case *ast.TypeSpec:
			switch t := n.Type.(type) {
			case *ast.InterfaceType:
				add("interface", n.Name.Name, n)
			case *ast.StructType:
				for _, fd := range t.Fields.List {
					names := []string{str(fd.Type)} // embedded: named by its type
					if len(fd.Names) > 0 {
						names = names[:0]
						for _, id := range fd.Names {
							names = append(names, id.Name)
						}
					}
					for _, name := range names {
						add("member", n.Name.Name+"."+name+" "+str(fd.Type), fd)
					}
				}
			}
		case *ast.BasicLit:
			if n.Kind == token.STRING {
				s, _ := strconv.Unquote(n.Value) // likewise
				add("string", s, n)
			}
		}
		return true
	})
	return ss, nil
}

var (
	asmLabel = regexp.MustCompile(`^\w+:\s*`)
	asmInstr = regexp.MustCompile(`^[A-Z][A-Z0-9]*\b`)
	asmWord  = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
)

// asmShapes reads Go assembly: each statement's mnemonic is an instr, every
// word outside a comment (symbols included, · dropped) an ident.
func asmShapes(name string, src []byte) []shape {
	var ss []shape
	for i, line := range strings.Split(string(src), "\n") {
		at := fmt.Sprintf("%s:%d", name, i+1)
		line, _, _ = strings.Cut(line, "//")
		for _, stmt := range strings.Split(line, ";") {
			stmt = asmLabel.ReplaceAllString(strings.TrimSpace(stmt), "")
			if m := asmInstr.FindString(stmt); m != "" {
				ss = append(ss, shape{kind: "instr", text: m, at: at})
			}
			for _, w := range asmWord.FindAllString(stmt, -1) {
				ss = append(ss, shape{kind: "ident", text: w, at: at})
			}
		}
	}
	return ss
}
