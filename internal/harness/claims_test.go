package harness

import (
	"math"
	"slices"
	"testing"
)

// The claims tier: the paper's verdicts (and this reproduction's known
// divergences from them) as tolerance bands over typed outcomes, so a
// change that silently breaks — or silently fixes — one is noticed, and
// so a re-captured byte golden still has something to answer to. Every
// band reads the outcome a table row measures, never a rendered table,
// over the five seeds the replication row derives from the default
// seed, at a reduced scale chosen to keep the tier near 10 s. Each
// states what it observed at this commit and the margin it leaves; -v
// logs the observed values.

const claimSeed = 42

// rowOf returns the shape of a table row, as its concrete type.
func rowOf[S shape](t *testing.T, id string) S {
	t.Helper()
	for _, r := range experimentTable() {
		if r.id == id {
			s, ok := r.shape.(S)
			if !ok {
				t.Fatalf("row %s has shape %T", id, r.shape)
			}
			return s
		}
	}
	t.Fatalf("no row %s in the experiment table", id)
	panic("unreachable")
}

// overSeeds averages what measure returns for each claim seed,
// element-wise.
func overSeeds(t *testing.T, opt ExpOptions, measure func(ExpOptions) []float64) []float64 {
	t.Helper()
	var sum []float64
	seeds := replicationSeeds(claimSeed)
	for _, seed := range seeds {
		opt.Seed = seed
		xs := measure(opt)
		if sum == nil {
			sum = make([]float64, len(xs))
		}
		for i, x := range xs {
			sum[i] += x / float64(len(seeds))
		}
	}
	return sum
}

func skipClaimsInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("claims tier skipped in -short mode")
	}
}

// Fig. 7: throughput orders Random < dCAT ≤ CoPart < PARTIES < SATORI,
// and SATORI sits within ~10% of the Balanced Oracle. Read from the
// replication row (the Fig. 7 line-up over the five seeds) at 3 mixes ×
// 300 ticks. Observed %oracle throughput .677 / .736 / .734 / .785 /
// .840: each strict step is 5-6 pts and is required at about half that;
// dCAT vs CoPart is a 0.2-pt tie and is held within 2 pts. SATORI's
// mean of the two goals is .910 (paper: ~.92), held to ±4.5 pts.
func TestClaimsFig7Ordering(t *testing.T) {
	skipClaimsInShort(t)
	m, err := measureReplication(ExpOptions{Ticks: 300, Seed: claimSeed, MixLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("throughput %%oracle: random %.3f dcat %.3f copart %.3f parties %.3f satori %.3f",
		m["random"].PctThroughput, m["dcat"].PctThroughput, m["copart"].PctThroughput, m["parties"].PctThroughput, m["satori"].PctThroughput)
	if m["satori"].Seeds < 5 {
		t.Fatalf("band derived from %d seeds, want >= 5", m["satori"].Seeds)
	}
	for _, step := range []struct {
		below, above string
		margin       float64
	}{{"random", "dcat", 0.03}, {"copart", "parties", 0.02}, {"parties", "satori", 0.025}} {
		if gap := m[step.above].PctThroughput - m[step.below].PctThroughput; gap < step.margin {
			t.Errorf("%s leads %s by %.1f pts of oracle throughput, want >= %.1f", step.above, step.below, gap*100, step.margin*100)
		}
	}
	if gap := m["dcat"].PctThroughput - m["copart"].PctThroughput; gap > 0.02 {
		t.Errorf("dCAT leads CoPart by %.1f pts of oracle throughput, want a tie within 2", gap*100)
	}
	sat := (m["satori"].PctThroughput + m["satori"].PctFairness) / 2
	t.Logf("satori mean of both goals: %.3f of the Balanced Oracle", sat)
	if sat < 0.865 || sat > 0.955 {
		t.Errorf("SATORI reaches %.3f of the Balanced Oracle, want 0.910 ± 0.045", sat)
	}
}

// Obs. 1 (Sec. II): 3 and 4 jobs over 2 resources and 4 jobs over 3,
// each of 10 units, have exactly 1 296 / 7 056 / 592 704 configurations.
func TestSpaceSizeMatchesPaper(t *testing.T) {
	sizes, err := measureSpace(ExpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1296, 7056, 592704} {
		if got := sizes[i].configurations; got != want {
			t.Errorf("%d jobs × %d resources: %.0f configurations, want %.0f", sizes[i].jobs, sizes[i].resources, got, want)
		}
	}
}

// SLO: satori-slo recovers attainment at least 10× sooner than satori,
// and satori-static and parties never do within 600 ticks. Observed on
// every seed: satori-slo at tick 16; satori at tick 241 on one seed and
// never on four (the 10× bound is tick 160, a 1.5× margin on the one
// finite case); static and parties never.
func TestClaimsSLORecovery(t *testing.T) {
	skipClaimsInShort(t)
	const ticks = 600
	slo := rowOf[scenarioRow](t, "slo")
	for _, seed := range replicationSeeds(claimSeed) {
		runs, err := slo.measure(ExpOptions{Ticks: ticks, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		recovery := map[string]int{}
		for _, run := range runs {
			recovery[run.policy] = sloRecovery(run)
		}
		t.Logf("seed %d: recovery ticks %v", seed, recovery)
		withSwitch, without := recovery["satori-slo"], recovery["satori"]
		if without < 0 {
			without = ticks + 1
		}
		if withSwitch < 0 || withSwitch*10 > without {
			t.Errorf("seed %d: satori-slo recovered at tick %d, satori at %d; want >= 10x sooner", seed, withSwitch, recovery["satori"])
		}
		for _, never := range []string{"satori-static", "parties"} {
			if recovery[never] >= 0 {
				t.Errorf("seed %d: %s recovered at tick %d, want never within %d", seed, never, recovery[never], ticks)
			}
		}
	}
}

// Clustering (LFOC's setting): on the 24-job machine, clustered search
// at K = 8 reaches an objective within a few % of per-job SATORI's, at a
// third of the coordinates. At 120 ticks the K=8/per-job ratio is
// .933-.979 by seed, mean .954; held to >= .92 (3.4 pts of margin).
func TestClaimsClusteredNearPerJob(t *testing.T) {
	skipClaimsInShort(t)
	cluster := rowOf[scenarioRow](t, "cluster")
	ratio := overSeeds(t, ExpOptions{Ticks: 120}, func(opt ExpOptions) []float64 {
		runs, err := cluster.measure(opt)
		if err != nil {
			t.Fatal(err)
		}
		objective := map[string]float64{}
		for _, run := range runs {
			objective[run.policy] = run.summary.MeanObjective
		}
		return []float64{objective["satori-clustered-k8"] / objective["satori"]}
	})[0]
	t.Logf("K=8 objective / per-job objective: %.3f", ratio)
	if ratio < 0.92 || ratio > 1.02 {
		t.Errorf("clustered K=8 reaches %.3f of per-job SATORI's objective, want within [0.92, 1.02]", ratio)
	}
}

// Fig. 16: performance is insensitive to T_P and T_E across the middle
// of each swept range (T_P 1-5 s, T_E 10-30 s). At 2 mixes × 200 ticks
// the across-seed means of the three middle points span 2.4 / 2.8 pts
// of oracle throughput and 1.0 / 0.8 pts of fairness (T_P / T_E axis);
// held to 6 and 3 pts, about twice the observed spread.
func TestClaimsFig16Insensitivity(t *testing.T) {
	skipClaimsInShort(t)
	for i, axis := range rowOf[seq](t, "fig16") {
		// Per point: throughput, then fairness.
		means := overSeeds(t, ExpOptions{Ticks: 200, MixLimit: 2}, func(opt ExpOptions) []float64 {
			out, err := axis.(sweepRow).measure(opt)
			if err != nil {
				t.Fatal(err)
			}
			var xs []float64
			for _, m := range out.means {
				xs = append(xs, m[0].PctThroughput, m[0].PctFairness)
			}
			return xs
		})
		var midT, midF []float64
		for p := 1; p <= 3; p++ {
			midT, midF = append(midT, means[2*p]), append(midF, means[2*p+1])
		}
		spreadT, spreadF := slices.Max(midT)-slices.Min(midT), slices.Max(midF)-slices.Min(midF)
		t.Logf("axis %d: mid-range spread %.1f pts throughput, %.1f pts fairness", i, spreadT*100, spreadF*100)
		if spreadT > 0.06 || spreadF > 0.03 {
			t.Errorf("axis %d: mid-range means span %.1f pts of throughput and %.1f of fairness, want <= 6 and <= 3",
				i, spreadT*100, spreadF*100)
		}
	}
}

// Known divergence, pinned as "still diverges, this way": the paper's
// SATORI−PARTIES gap grows monotonically with the co-location degree
// (8/11/13/13/15 pts for 3-7 jobs); ours does not. At 200 ticks the
// across-seed mean gaps are 5.3 / 1.5 / 0.9 / 4.2 / 2.2 pts: the largest
// fall between neighbouring degrees is 3.7 pts (required >= 1.5) and
// the gap shrinks by 3.1 pts end to end (paper: +7; required <= +2). A
// change that makes the trend monotone should fail here and move the
// verdict in EXPERIMENTS.md.
func TestClaimsScalabilityGapNotMonotone(t *testing.T) {
	skipClaimsInShort(t)
	scalability := rowOf[sweepRow](t, "scalability")
	gaps := overSeeds(t, ExpOptions{Ticks: 200}, func(opt ExpOptions) []float64 {
		out, err := scalability.measure(opt)
		if err != nil {
			t.Fatal(err)
		}
		var xs []float64
		for _, m := range out.means {
			_, _, gap := scalabilityGap(m)
			xs = append(xs, gap)
		}
		return xs
	})
	t.Logf("combined gap by degree 3..7: %.1f", gaps)
	fall := 0.0
	for i := 1; i < len(gaps); i++ {
		fall = math.Max(fall, gaps[i-1]-gaps[i])
	}
	if growth := gaps[len(gaps)-1] - gaps[0]; fall < 1.5 || growth > 2 {
		t.Errorf("gap by degree %.1f: largest fall %.1f pts, end-to-end growth %+.1f; the known divergence is a fall >= 1.5 and growth <= +2",
			gaps, fall, growth)
	}
}

// Known divergence, pinned: the paper has prioritizing the weaker goal
// ~5 pts ahead of prioritizing the stronger one (Fig. 19); here the two
// tie. At 3 mixes × 200 ticks the weaker-goal arm's combined-score
// advantage is +0.1 pts (−2.4 to +2.6 by seed at 300 ticks); held to
// |advantage| <= 3.
func TestClaimsFig19Tie(t *testing.T) {
	skipClaimsInShort(t)
	fig19 := rowOf[suiteRow](t, "fig19")
	advantage := overSeeds(t, ExpOptions{Ticks: 200, MixLimit: 3}, func(opt ExpOptions) []float64 {
		res, err := fig19.measure(opt)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Means()
		weaker, stronger := m[res.Policies[0]], m[res.Policies[1]]
		return []float64{((weaker.PctThroughput + weaker.PctFairness) - (stronger.PctThroughput + stronger.PctFairness)) / 2 * 100}
	})[0]
	t.Logf("weaker-goal advantage: %+.1f pts", advantage)
	if math.Abs(advantage) > 3 {
		t.Errorf("prioritizing the weaker goal leads by %+.1f pts; the known divergence is a tie within 3 (paper: ~+5)", advantage)
	}
}
