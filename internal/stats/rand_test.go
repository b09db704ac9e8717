package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical values", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %g, want ~0.1", i, frac)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 20; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 500; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if n <= 10 && len(seen) != n {
			t.Errorf("Intn(%d) produced only %d distinct values in 500 draws", n, len(seen))
		}
	}
}

func TestIntnLargeRange(t *testing.T) {
	// The pre-Lemire implementation reduced a 31-bit value modulo n, so
	// for n >= 2^31 it could never return anything >= 2^31 — the top of
	// the range was unreachable and the bottom over-represented 3x for
	// n = 3*2^31. With the true 64-bit reduction the mean must sit near
	// n/2 and values above 2^31 must appear.
	r := NewRNG(13)
	n := 3 * (1 << 31) // ~6.4e9, exceeds the old 31-bit numerator
	const draws = 2000
	var sum float64
	above := 0
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		if v >= 1<<31 {
			above++
		}
		sum += float64(v)
	}
	mean := sum / draws
	if mean < 0.45*float64(n) || mean > 0.55*float64(n) {
		t.Errorf("Intn(%d) mean = %g, want ~%g", n, mean, float64(n)/2)
	}
	// 2/3 of the range lies above 2^31; allow generous slack.
	if frac := float64(above) / draws; frac < 0.55 || frac > 0.78 {
		t.Errorf("fraction above 2^31 = %g, want ~0.67", frac)
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square uniformity check on a small modulus. With 7 buckets
	// and 70,000 draws the expected count is 10,000 per bucket; the
	// chi-square statistic with 6 degrees of freedom exceeds 22.46 with
	// probability 0.1% under uniformity.
	r := NewRNG(17)
	const n, draws = 7, 70000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 22.46 {
		t.Errorf("chi-square = %g over 7 buckets (counts %v), uniformity rejected at 0.1%%", chi2, counts)
	}
}

func TestUint64nEdgeCases(t *testing.T) {
	r := NewRNG(23)
	for i := 0; i < 100; i++ {
		if v := r.Uint64n(1); v != 0 {
			t.Fatalf("Uint64n(1) = %d, want 0", v)
		}
	}
	// Huge n (rejection threshold is large): values stay in range and
	// reach the upper half.
	n := uint64(1)<<63 + 3
	upper := 0
	for i := 0; i < 1000; i++ {
		v := r.Uint64n(n)
		if v >= n {
			t.Fatalf("Uint64n(%d) = %d out of range", n, v)
		}
		if v >= n/2 {
			upper++
		}
	}
	if upper < 400 || upper > 600 {
		t.Errorf("upper-half fraction %d/1000, want ~500", upper)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.NormFloat64())
	}
	if math.Abs(w.Mean()) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", w.Mean())
	}
	if math.Abs(w.StdDev()-1) > 0.02 {
		t.Errorf("normal stddev = %g, want ~1", w.StdDev())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(3)
	for n := 0; n <= 12; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := NewRNG(8)
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Errorf("Shuffle changed contents: %v", xs)
	}
}

// intnsAgainstIntn draws bounds through Intns from one generator and through
// Intn, bound by bound, from a twin, and fails unless every value and the
// final states agree. It returns how many of the twin's draws were
// rejected: a rejected draw shows as more than one Uint64 between two
// states.
func intnsAgainstIntn(t *testing.T, seed uint64, bounds []int) (rejected int) {
	t.Helper()
	r, twin := NewRNG(seed), NewRNG(seed)
	got := append([]int(nil), bounds...)
	r.Intns(got)
	for i, b := range bounds {
		before := *twin
		if want := twin.Intn(b); got[i] != want {
			t.Fatalf("seed %d bound %d (%d of %d): Intns drew %d, Intn %d", seed, b, i, len(bounds), got[i], want)
		}
		for n := 0; ; n++ {
			if before.Uint64(); before == *twin {
				rejected += n
				break
			}
			if n == 64 {
				t.Fatalf("seed %d bound %d: Intn took more than 64 draws", seed, b)
			}
		}
	}
	if *r != *twin {
		t.Fatalf("seed %d: Intns over %d bounds left the generator elsewhere than Intn", seed, len(bounds))
	}
	return rejected
}

// TestIntnsMatchesIntn holds Intns to a plain sequence of Intn calls over
// small bounds, bounds up to 2⁶², and bounds just above 2⁶⁴/3 and 2⁶²,
// where about a third and a quarter of the draws are rejected and redrawn.
func TestIntnsMatchesIntn(t *testing.T) {
	rng := NewRNG(77)
	rejected, draws := 0, 0
	for seed := uint64(0); seed < 300; seed++ {
		bounds := make([]int, rng.Intn(40))
		for i := range bounds {
			switch rng.Intn(4) {
			case 0:
				bounds[i] = 1 + rng.Intn(64)
			case 1:
				bounds[i] = 1 + rng.Intn(1<<62)
			case 2:
				bounds[i] = int(^uint64(0)/3) + 1 + rng.Intn(1<<20)
			default:
				bounds[i] = 1<<62 + 1 + rng.Intn(1<<20)
			}
		}
		rejected += intnsAgainstIntn(t, seed, bounds)
		draws += len(bounds)
	}
	if rejected == 0 {
		t.Fatal("no draw was rejected: the rejection path was not compared")
	}
	t.Logf("%d bounds drawn, %d draws rejected and redrawn", draws, rejected)
}

// FuzzIntns is TestIntnsMatchesIntn's check over bounds the fuzzer picks,
// each eight bytes folded to a positive int.
func FuzzIntns(f *testing.F) {
	f.Add(uint64(1), []byte{5, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(2), []byte{0x56, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55})
	f.Add(uint64(3), []byte{1, 0, 0, 0, 0, 0, 0, 0x40, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		var bounds []int
		for ; len(raw) >= 8; raw = raw[8:] {
			b := uint64(raw[0]) | uint64(raw[1])<<8 | uint64(raw[2])<<16 | uint64(raw[3])<<24 |
				uint64(raw[4])<<32 | uint64(raw[5])<<40 | uint64(raw[6])<<48 | uint64(raw[7])<<56
			bounds = append(bounds, max(1, int(b>>1)))
		}
		intnsAgainstIntn(t, seed, bounds)
	})
}

func TestIntnsPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intns with a zero bound did not panic")
		}
	}()
	NewRNG(1).Intns([]int{3, 0})
}
