package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"satori/internal/stats"
)

func TestSpeedups(t *testing.T) {
	s := Speedups([]float64{50, 30}, []float64{100, 60})
	if s[0] != 0.5 || s[1] != 0.5 {
		t.Errorf("Speedups = %v, want [0.5 0.5]", s)
	}
	// Zero baseline yields zero speedup instead of Inf/NaN.
	s = Speedups([]float64{50}, []float64{0})
	if s[0] != 0 {
		t.Errorf("zero-baseline speedup = %g, want 0", s[0])
	}
}

func TestSpeedupsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Speedups([]float64{1}, []float64{1, 2})
}

func TestThroughputMetrics(t *testing.T) {
	sp := []float64{0.5, 0.5}
	if got := Throughput(GeoMeanSpeedup, sp); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("geomean = %g", got)
	}
	if got := Throughput(HarmonicMeanSpeedup, sp); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("harmonic = %g", got)
	}
	if got := Throughput(SumIPS, []float64{100, 200}); got != 300 {
		t.Errorf("sum-ips = %g", got)
	}
}

func TestJainIndexProperties(t *testing.T) {
	// Perfect fairness: all speedups equal -> Jain = 1.
	if got := Fairness(JainIndex, []float64{0.7, 0.7, 0.7}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Jain of equal speedups = %g, want 1", got)
	}
	// Known value: speedups {1, 0} -> mean .5, std .5, CoV 1 -> Jain 0.5.
	if got := Fairness(JainIndex, []float64{1, 0}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Jain(1,0) = %g, want 0.5", got)
	}
	// More dispersion means lower fairness.
	low := Fairness(JainIndex, []float64{0.4, 0.6})
	high := Fairness(JainIndex, []float64{0.49, 0.51})
	if low >= high {
		t.Errorf("Jain ordering wrong: dispersed %g >= tight %g", low, high)
	}
}

func TestJainBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(6)
		sp := make([]float64, n)
		for i := range sp {
			sp[i] = rng.Float64()
		}
		j := Fairness(JainIndex, sp)
		return j > 0 && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainScaleInvarianceProperty(t *testing.T) {
	// Jain's index depends only on relative dispersion: scaling all
	// speedups by a constant must not change it.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(6)
		sp := make([]float64, n)
		scaled := make([]float64, n)
		k := 0.5 + rng.Float64()*3
		for i := range sp {
			sp[i] = 0.1 + rng.Float64()
			scaled[i] = sp[i] * k
		}
		return math.Abs(Fairness(JainIndex, sp)-Fairness(JainIndex, scaled)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOneMinusCoV(t *testing.T) {
	if got := Fairness(OneMinusCoV, []float64{0.5, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("1-CoV of equal = %g, want 1", got)
	}
	// CoV of {1, 0} is 1 -> metric 0; more extreme cases can go negative.
	if got := Fairness(OneMinusCoV, []float64{1, 0}); math.Abs(got) > 1e-12 {
		t.Errorf("1-CoV(1,0) = %g, want 0", got)
	}
	// Can be negative: {10, 0.1, 0.1} has CoV > 1.
	if got := Fairness(OneMinusCoV, []float64{10, 0.1, 0.1}); got >= 0 {
		t.Errorf("1-CoV of extreme dispersion = %g, want negative", got)
	}
}

func TestNormalizedThroughput(t *testing.T) {
	ips := []float64{50, 30}
	iso := []float64{100, 60}
	if got := NormalizedThroughput(GeoMeanSpeedup, ips, iso); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("normalized geomean = %g, want 0.5", got)
	}
	if got := NormalizedThroughput(SumIPS, ips, iso); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("normalized sum-ips = %g, want 0.5", got)
	}
	// Degenerate baseline.
	if got := NormalizedThroughput(SumIPS, []float64{1}, []float64{0}); got != 0 {
		t.Errorf("normalized sum-ips with zero iso = %g, want 0", got)
	}
	// Clamped at 1 even if measurement noise pushes IPS past isolation.
	if got := NormalizedThroughput(GeoMeanSpeedup, []float64{120}, []float64{100}); got != 1 {
		t.Errorf("clamping failed: %g", got)
	}
}

func TestNormalizedFairnessClamps(t *testing.T) {
	ips := []float64{100, 1, 1}
	iso := []float64{100, 100, 100}
	got := NormalizedFairness(OneMinusCoV, ips, iso)
	if got < 0 || got > 1 {
		t.Errorf("normalized 1-CoV out of range: %g", got)
	}
	if got != 0 {
		t.Errorf("extreme unfairness should clamp to 0, got %g", got)
	}
}

func TestNormalizedRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(5)
		ips := make([]float64, n)
		iso := make([]float64, n)
		for i := range ips {
			iso[i] = 10 + rng.Float64()*1000
			ips[i] = rng.Float64() * iso[i]
		}
		for _, tm := range []ThroughputMetric{GeoMeanSpeedup, HarmonicMeanSpeedup, SumIPS} {
			v := NormalizedThroughput(tm, ips, iso)
			if v < 0 || v > 1 {
				return false
			}
		}
		for _, fm := range []FairnessMetric{JainIndex, OneMinusCoV} {
			v := NormalizedFairness(fm, ips, iso)
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntoFormsReuseScratch: with a scratch of sufficient capacity the
// Into forms allocate nothing, and a scratch holding stale values (from a
// longer or a zero-baseline vector) changes no result bit.
func TestIntoFormsReuseScratch(t *testing.T) {
	ips := []float64{40, 0, 75, 12}
	iso := []float64{100, 0, 80, 50}
	scratch := []float64{9, 9, 9, 9, 9}
	if got := SpeedupsInto(scratch, ips, iso); &got[0] != &scratch[0] || got[1] != 0 || len(got) != 4 {
		t.Errorf("SpeedupsInto = %v on scratch %v", got, scratch)
	}
	tms := []ThroughputMetric{DefaultThroughput, GeoMeanSpeedup, HarmonicMeanSpeedup, SumIPS, P99Latency}
	fms := []FairnessMetric{DefaultFairness, JainIndex, OneMinusCoV, SLOAttainment}
	for _, tm := range tms {
		scratch[1] = 9
		if a, b := NormalizedThroughputInto(tm, ips, iso, scratch), NormalizedThroughput(tm, ips, iso); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%v: Into %v, wrapper %v", tm, a, b)
		}
	}
	for _, fm := range fms {
		scratch[1] = 9
		if a, b := NormalizedFairnessInto(fm, ips, iso, scratch), NormalizedFairness(fm, ips, iso); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%v: Into %v, wrapper %v", fm, a, b)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		NormalizedThroughputInto(GeoMeanSpeedup, ips, iso, scratch)
		NormalizedFairnessInto(JainIndex, ips, iso, scratch)
	})
	if allocs != 0 {
		t.Errorf("Into forms allocate %v times with a long enough scratch", allocs)
	}
}

func TestWorstSpeedup(t *testing.T) {
	got := WorstSpeedup(Speedups([]float64{90, 20, 50}, []float64{100, 100, 100}))
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("WorstSpeedup = %g, want 0.2", got)
	}
	if got := WorstSpeedup(nil); got != 0 {
		t.Errorf("WorstSpeedup(empty) = %g, want 0", got)
	}
}

func TestMetricStrings(t *testing.T) {
	if GeoMeanSpeedup.String() != "geomean-speedup" ||
		HarmonicMeanSpeedup.String() != "harmonic-speedup" ||
		SumIPS.String() != "sum-ips" {
		t.Error("throughput metric names wrong")
	}
	if JainIndex.String() != "jain" || OneMinusCoV.String() != "one-minus-cov" {
		t.Error("fairness metric names wrong")
	}
	if ThroughputMetric(99).String() == "" || FairnessMetric(99).String() == "" {
		t.Error("unknown metrics should still stringify")
	}
}
