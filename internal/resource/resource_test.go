package resource

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"satori/internal/stats"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	return MustNewSpace(3,
		Resource{Kind: Cores, Units: 6},
		Resource{Kind: LLCWays, Units: 4},
	)
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(0, Resource{Kind: Cores, Units: 4}); err == nil {
		t.Error("0 jobs accepted")
	}
	if _, err := NewSpace(2); err == nil {
		t.Error("no resources accepted")
	}
	if _, err := NewSpace(5, Resource{Kind: Cores, Units: 4}); err == nil {
		t.Error("more jobs than units accepted")
	}
	if _, err := NewSpace(2, Resource{Kind: Cores, Units: 2}); err != nil {
		t.Errorf("minimal space rejected: %v", err)
	}
}

func TestMustNewSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewSpace did not panic on invalid input")
		}
	}()
	MustNewSpace(0)
}

func TestSizeMatchesPaperExamples(t *testing.T) {
	// Sec. II: 3 jobs, 2 resources x 10 units -> 1,296 configurations.
	s := MustNewSpace(3,
		Resource{Kind: Cores, Units: 10},
		Resource{Kind: MemBW, Units: 10},
	)
	if got := s.Size(); got != 1296 {
		t.Errorf("3 jobs 2x10 units: Size = %g, want 1296", got)
	}
	// 4 jobs -> 7,056.
	s = MustNewSpace(4,
		Resource{Kind: Cores, Units: 10},
		Resource{Kind: MemBW, Units: 10},
	)
	if got := s.Size(); got != 7056 {
		t.Errorf("4 jobs 2x10 units: Size = %g, want 7056", got)
	}
	// Adding a third 10-unit resource -> 592,704 (the paper prints
	// "5,92,704" in Indian digit grouping).
	s = MustNewSpace(4,
		Resource{Kind: Cores, Units: 10},
		Resource{Kind: MemBW, Units: 10},
		Resource{Kind: LLCWays, Units: 10},
	)
	if got := s.Size(); got != 592704 {
		t.Errorf("4 jobs 3x10 units: Size = %g, want 592704", got)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10}, {9, 4, 126}, {9, 2, 36}, {0, 0, 1},
		{3, 5, 0}, {3, -1, 0}, {10, 0, 1}, {10, 10, 1},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestEnumerateCountMatchesSize(t *testing.T) {
	s := testSpace(t)
	count := 0
	seen := map[string]bool{}
	s.Enumerate(func(c Config) bool {
		if err := s.Validate(c); err != nil {
			t.Fatalf("enumerated invalid config: %v", err)
		}
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate config %s", k)
		}
		seen[k] = true
		count++
		return true
	})
	if want := int(s.Size()); count != want {
		t.Errorf("enumerated %d configs, Size says %d", count, want)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	s := testSpace(t)
	count := 0
	s.Enumerate(func(c Config) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop at %d, want 5", count)
	}
}

func TestEqualSplit(t *testing.T) {
	s := MustNewSpace(3,
		Resource{Kind: Cores, Units: 10},
		Resource{Kind: LLCWays, Units: 9},
	)
	c := s.EqualSplit()
	if err := s.Validate(c); err != nil {
		t.Fatalf("equal split invalid: %v", err)
	}
	// 10 = 4+3+3, 9 = 3+3+3.
	if c.Alloc[0][0] != 4 || c.Alloc[0][1] != 3 || c.Alloc[0][2] != 3 {
		t.Errorf("cores split = %v", c.Alloc[0])
	}
	for j := 0; j < 3; j++ {
		if c.Alloc[1][j] != 3 {
			t.Errorf("ways split = %v", c.Alloc[1])
		}
	}
}

func TestRandomConfigsValidProperty(t *testing.T) {
	s := MustNewSpace(5,
		Resource{Kind: Cores, Units: 10},
		Resource{Kind: LLCWays, Units: 11},
		Resource{Kind: MemBW, Units: 10},
	)
	rng := stats.NewRNG(1)
	for i := 0; i < 2000; i++ {
		c := s.Random(rng)
		if err := s.Validate(c); err != nil {
			t.Fatalf("random config invalid: %v", err)
		}
	}
}

func TestRandomCompositionUniformity(t *testing.T) {
	// Compositions of 4 into 2 positive parts: (1,3),(2,2),(3,1) — each
	// should appear ~1/3 of the time.
	s := MustNewSpace(2, Resource{Kind: Cores, Units: 4})
	rng := stats.NewRNG(2)
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.Random(rng).Key()]++
	}
	if len(counts) != 3 {
		t.Fatalf("expected 3 compositions, saw %d: %v", len(counts), counts)
	}
	for k, c := range counts {
		frac := float64(c) / n
		if frac < 0.30 || frac > 0.37 {
			t.Errorf("composition %s frequency %g, want ~1/3", k, frac)
		}
	}
}

// sortedComposition is randomComposition as it was before the bitset: the
// same partial Fisher-Yates, its cut points put in order by insertion sort.
func sortedComposition(rng *stats.RNG, units, parts int, out []int) {
	if parts == 1 {
		out[0] = units
		return
	}
	n := units - 1
	k := parts - 1
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i + 1
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		pos[i], pos[j] = pos[j], pos[i]
	}
	cuts := pos[:k]
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	prev := 0
	for i, cut := range cuts {
		out[i] = cut - prev
		prev = cut
	}
	out[parts-1] = units - prev
}

// TestRandomCompositionMatchesSortOracle holds the bitset walk to the sort
// it replaced for every (units, parts) with units up to 140: the same
// composition, and the same draws consumed, so the generator's next output
// agrees. Past 65 units the bitset has several words and lives on the heap;
// parts == units sets every bit.
func TestRandomCompositionMatchesSortOracle(t *testing.T) {
	const draws = 4
	compared, multiWord := 0, 0
	for units := 1; units <= 140; units++ {
		for parts := 1; parts <= units; parts++ {
			got, want := make([]int, parts), make([]int, parts)
			for d := uint64(0); d < draws; d++ {
				seed := uint64(units)<<20 | uint64(parts)<<4 | d
				rng, oracle := stats.NewRNG(seed), stats.NewRNG(seed)
				randomComposition(rng, units, parts, got)
				sortedComposition(oracle, units, parts, want)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("units %d parts %d seed %d: composition %v, oracle %v", units, parts, seed, got, want)
					}
				}
				if g, w := rng.Uint64(), oracle.Uint64(); g != w {
					t.Fatalf("units %d parts %d seed %d: next draw %#x, oracle %#x: a different number of draws was consumed", units, parts, seed, g, w)
				}
				compared++
				if units-1 > 64 {
					multiWord++
				}
			}
		}
	}
	if multiWord == 0 {
		t.Fatal("no multi-word bitset was compared")
	}
	t.Logf("%d compositions compared, %d over a multi-word bitset", compared, multiWord)
}

func TestCloneIndependence(t *testing.T) {
	s := testSpace(t)
	a := s.EqualSplit()
	b := a.Clone()
	b.Alloc[0][0] = 99
	if a.Alloc[0][0] == 99 {
		t.Error("Clone shares backing storage")
	}
}

func TestEqualAndKey(t *testing.T) {
	s := testSpace(t)
	a := s.EqualSplit()
	b := s.EqualSplit()
	if !a.Equal(b) {
		t.Error("identical configs not Equal")
	}
	if a.Key() != b.Key() {
		t.Error("identical configs have different keys")
	}
	c, ok := s.Move(a, 0, 0, 1)
	if !ok {
		t.Fatal("legal move rejected")
	}
	if a.Equal(c) || a.Key() == c.Key() {
		t.Error("different configs compare equal")
	}
}

func TestDistance(t *testing.T) {
	s := testSpace(t)
	a := s.EqualSplit()
	if got := Distance(a, a); got != 0 {
		t.Errorf("self distance = %g", got)
	}
	b, _ := s.Move(a, 0, 0, 1)
	// One unit moved: two coordinates change by 1 -> distance sqrt(2).
	if got := Distance(a, b); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("one-move distance = %g, want sqrt(2)", got)
	}
	// Symmetry.
	if Distance(a, b) != Distance(b, a) {
		t.Error("distance not symmetric")
	}
}

func TestMaxDistanceBoundsProperty(t *testing.T) {
	s := MustNewSpace(3,
		Resource{Kind: Cores, Units: 8},
		Resource{Kind: LLCWays, Units: 6},
	)
	maxD := s.MaxDistance()
	rng := stats.NewRNG(3)
	for i := 0; i < 1000; i++ {
		a, b := s.Random(rng), s.Random(rng)
		if d := Distance(a, b); d > maxD+1e-9 {
			t.Fatalf("distance %g exceeds MaxDistance %g for %s vs %s", d, maxD, a.Key(), b.Key())
		}
	}
	// The bound is attainable: concentrate everything on different jobs.
	a := s.NewConfig()
	b := s.NewConfig()
	for r, res := range s.Resources {
		for j := 0; j < s.Jobs; j++ {
			a.Alloc[r][j] = 1
			b.Alloc[r][j] = 1
		}
		a.Alloc[r][0] += res.Units - s.Jobs
		b.Alloc[r][1] += res.Units - s.Jobs
	}
	if d := Distance(a, b); math.Abs(d-maxD) > 1e-9 {
		t.Errorf("extreme configs distance %g != MaxDistance %g", d, maxD)
	}
}

func TestVector(t *testing.T) {
	s := testSpace(t)
	c := s.EqualSplit()
	v := s.Vector(c)
	if len(v) != s.Dim() {
		t.Fatalf("vector dim %d, want %d", len(v), s.Dim())
	}
	// Each resource's shares sum to 1.
	for r := 0; r < len(s.Resources); r++ {
		sum := 0.0
		for j := 0; j < s.Jobs; j++ {
			sum += v[r*s.Jobs+j]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("resource %d shares sum to %g", r, sum)
		}
	}
}

func TestNeighbors(t *testing.T) {
	s := MustNewSpace(2, Resource{Kind: Cores, Units: 3})
	// Config (2,1): moves possible only from job 0 -> job 1.
	c := s.NewConfig()
	c.Alloc[0][0], c.Alloc[0][1] = 2, 1
	ns := s.Neighbors(c)
	if len(ns) != 1 {
		t.Fatalf("neighbors = %d, want 1", len(ns))
	}
	if ns[0].Alloc[0][0] != 1 || ns[0].Alloc[0][1] != 2 {
		t.Errorf("neighbor = %v", ns[0].Alloc)
	}
	for _, n := range ns {
		if err := s.Validate(n); err != nil {
			t.Errorf("invalid neighbor: %v", err)
		}
	}
}

func TestNeighborsAllValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := MustNewSpace(3,
			Resource{Kind: Cores, Units: 6},
			Resource{Kind: MemBW, Units: 5},
		)
		c := s.Random(rng)
		for _, n := range s.Neighbors(c) {
			if s.Validate(n) != nil {
				return false
			}
			if math.Abs(Distance(c, n)-math.Sqrt2) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMoveIllegal(t *testing.T) {
	s := MustNewSpace(2, Resource{Kind: Cores, Units: 2})
	c := s.EqualSplit() // (1,1): no legal moves.
	if _, ok := s.Move(c, 0, 0, 1); ok {
		t.Error("move below 1-unit floor accepted")
	}
	if _, ok := s.Move(c, 0, 0, 0); ok {
		t.Error("self-move accepted")
	}
	if _, ok := s.Move(c, 5, 0, 1); ok {
		t.Error("out-of-range resource accepted")
	}
	if _, ok := s.Move(c, 0, -1, 1); ok {
		t.Error("out-of-range job accepted")
	}
}

func TestImbalance(t *testing.T) {
	s := MustNewSpace(2, Resource{Kind: Cores, Units: 4})
	if got := s.Imbalance(s.EqualSplit()); got != 0 {
		t.Errorf("equal split imbalance = %g, want 0", got)
	}
	skew := s.NewConfig()
	skew.Alloc[0][0], skew.Alloc[0][1] = 3, 1
	if got := s.Imbalance(skew); got != 1 {
		t.Errorf("skewed imbalance = %g, want 1", got)
	}
}

func TestInitialSet(t *testing.T) {
	s := MustNewSpace(3,
		Resource{Kind: Cores, Units: 9},
		Resource{Kind: LLCWays, Units: 6},
	)
	set := s.InitialSet(5)
	if len(set) != 5 {
		t.Fatalf("initial set size %d, want 5", len(set))
	}
	if !set[0].Equal(s.EqualSplit()) {
		t.Error("first initial config is not the equal split")
	}
	seen := map[string]bool{}
	for _, c := range set {
		if err := s.Validate(c); err != nil {
			t.Errorf("invalid initial config: %v", err)
		}
		if seen[c.Key()] {
			t.Errorf("duplicate initial config %s", c.Key())
		}
		seen[c.Key()] = true
	}
	if got := s.InitialSet(0); len(got) != 1 {
		t.Errorf("InitialSet(0) size = %d, want 1", len(got))
	}
}

func TestRandomDistinct(t *testing.T) {
	s := MustNewSpace(2, Resource{Kind: Cores, Units: 5}) // 4 configs total
	rng := stats.NewRNG(9)
	all := s.RandomDistinct(rng, 10)
	if len(all) != 4 {
		t.Fatalf("RandomDistinct over-small space returned %d, want all 4", len(all))
	}
	seen := map[string]bool{}
	for _, c := range all {
		if seen[c.Key()] {
			t.Fatal("RandomDistinct repeated a config")
		}
		seen[c.Key()] = true
	}
	// Large space path.
	big := MustNewSpace(4,
		Resource{Kind: Cores, Units: 10},
		Resource{Kind: LLCWays, Units: 11},
		Resource{Kind: MemBW, Units: 10},
	)
	got := big.RandomDistinct(rng, 50)
	if len(got) != 50 {
		t.Fatalf("RandomDistinct large space returned %d, want 50", len(got))
	}
	seen = map[string]bool{}
	for _, c := range got {
		if err := big.Validate(c); err != nil {
			t.Errorf("invalid sampled config: %v", err)
		}
		if seen[c.Key()] {
			t.Error("repeat in large-space sampling")
		}
		seen[c.Key()] = true
	}
}

func TestStringRendering(t *testing.T) {
	s := testSpace(t)
	c := s.EqualSplit()
	str := s.String(c)
	if str == "" {
		t.Error("empty String rendering")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should still stringify")
	}
	for _, k := range []Kind{Cores, LLCWays, MemBW, Power} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestDimAndNewConfig(t *testing.T) {
	s := MustNewSpace(4,
		Resource{Kind: Cores, Units: 8},
		Resource{Kind: LLCWays, Units: 8},
		Resource{Kind: MemBW, Units: 8},
	)
	if s.Dim() != 12 {
		t.Errorf("Dim = %d, want 12", s.Dim())
	}
	c := s.NewConfig()
	if len(c.Alloc) != 3 || len(c.Alloc[0]) != 4 {
		t.Error("NewConfig has wrong shape")
	}
	if err := s.Validate(c); err == nil {
		t.Error("all-zero config passed validation")
	}
}

// TestRandomIntoMatchesRandom pins the RNG-draw contract: the in-place
// variant must produce the identical sample (and consume the identical
// draw sequence) as the allocating one, so hot paths can switch to it
// without perturbing seeded replays.
func TestRandomIntoMatchesRandom(t *testing.T) {
	s := testSpace(t)
	rngA := stats.NewRNG(42)
	rngB := stats.NewRNG(42)
	dst := s.NewConfig()
	for i := 0; i < 200; i++ {
		want := s.Random(rngA)
		s.RandomInto(rngB, dst)
		if !dst.Equal(want) {
			t.Fatalf("draw %d: RandomInto %v != Random %v", i, dst.Alloc, want.Alloc)
		}
	}
	// Both streams must be in the same state afterwards.
	if a, b := rngA.Intn(1<<30), rngB.Intn(1<<30); a != b {
		t.Fatalf("RNG streams diverged: %d vs %d", a, b)
	}
}

// TestMoveInPlaceMatchesMove: legality decisions and results must agree
// with Move, and illegal moves must leave the config untouched.
func TestMoveInPlaceMatchesMove(t *testing.T) {
	s := testSpace(t)
	rng := stats.NewRNG(7)
	for trial := 0; trial < 300; trial++ {
		c := s.Random(rng)
		r := rng.Intn(len(s.Resources)+1) - 1 // include an out-of-range row
		from := rng.Intn(s.Jobs + 1)
		to := rng.Intn(s.Jobs)
		moved, okWant := s.Move(c, r, from, to)
		got := c.Clone()
		ok := s.MoveInPlace(got, r, from, to)
		if ok != okWant {
			t.Fatalf("trial %d: legality mismatch: in-place %v vs Move %v", trial, ok, okWant)
		}
		if ok && !got.Equal(moved) {
			t.Fatalf("trial %d: results differ: %v vs %v", trial, got.Alloc, moved.Alloc)
		}
		if !ok && !got.Equal(c) {
			t.Fatalf("trial %d: illegal move mutated the config", trial)
		}
	}
}

// TestVectorIntoMatchesVector: the reuse variant must produce the same
// encoding and not allocate once the buffer is warm.
func TestVectorIntoMatchesVector(t *testing.T) {
	s := testSpace(t)
	rng := stats.NewRNG(9)
	buf := make([]float64, 0, s.Dim())
	for i := 0; i < 50; i++ {
		c := s.Random(rng)
		want := s.Vector(c)
		buf = s.VectorInto(buf, c)
		if len(buf) != len(want) {
			t.Fatalf("length %d != %d", len(buf), len(want))
		}
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("component %d: %g != %g", j, buf[j], want[j])
			}
		}
	}
	c := s.EqualSplit()
	if n := testing.AllocsPerRun(50, func() { buf = s.VectorInto(buf, c) }); n != 0 {
		t.Errorf("warm VectorInto allocates %v times per call", n)
	}
}

// TestConfigAppendKeyMatchesKey holds AppendKey and Key to the
// strings.Builder encoding Key had before AppendKey existed: record-store
// ties are broken by comparing keys, so the bytes themselves must not
// change. Multi-digit units, a single row and a single job are spelled
// out; random configurations of a wider space follow, appended after a
// prefix, and a warm AppendKey does not allocate.
func TestConfigAppendKeyMatchesKey(t *testing.T) {
	reference := func(c Config) string {
		var b strings.Builder
		for r, row := range c.Alloc {
			if r > 0 {
				b.WriteByte('|')
			}
			for j, u := range row {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(u))
			}
		}
		return b.String()
	}
	for _, c := range []struct {
		alloc [][]int
		want  string
	}{
		{[][]int{{12, 3, 105}, {1, 1, 30}}, "12,3,105|1,1,30"},
		{[][]int{{7, 10}}, "7,10"},
		{[][]int{{48}, {32}, {24}}, "48|32|24"},
		{[][]int{{1000}}, "1000"},
	} {
		cfg := Config{Alloc: c.alloc}
		if got := cfg.Key(); got != c.want || got != reference(cfg) {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
		if got := string(cfg.AppendKey([]byte("k:"))); got != "k:"+c.want {
			t.Errorf("AppendKey = %q, want %q", got, "k:"+c.want)
		}
	}
	s := MustNewSpace(7, Resource{Kind: Cores, Units: 48}, Resource{Kind: LLCWays, Units: 32}, Resource{Kind: MemBW, Units: 24})
	rng := stats.NewRNG(17)
	var buf []byte
	for i := 0; i < 200; i++ {
		c := s.Random(rng)
		buf = c.AppendKey(append(buf[:0], "prefix"...))
		if want := reference(c); c.Key() != want || string(buf) != "prefix"+want {
			t.Fatalf("config %v: Key %q, AppendKey %q, want %q", c.Alloc, c.Key(), buf, want)
		}
	}
	c := s.EqualSplit()
	if n := testing.AllocsPerRun(50, func() { buf = c.AppendKey(buf[:0]) }); n != 0 {
		t.Errorf("warm AppendKey allocates %v times per call", n)
	}
}

// TestCopyFrom copies values, not aliases, and panics on shape mismatch.
func TestCopyFrom(t *testing.T) {
	s := testSpace(t)
	rng := stats.NewRNG(11)
	src := s.Random(rng)
	dst := s.NewConfig()
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatal("CopyFrom did not copy values")
	}
	dst.Alloc[0][0]++
	if dst.Equal(src) {
		t.Fatal("CopyFrom aliased the source storage")
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	bad := Config{Alloc: [][]int{{1}}}
	bad.CopyFrom(src)
}
