package core

import (
	"testing"

	"satori/internal/resource"
)

// walkSpace is a three-resource space so a Managed restriction leaves a
// majority of rows unmanaged — the regime where the old walk wasted most
// of its steps.
func walkSpace(t *testing.T) *resource.Space {
	t.Helper()
	return resource.MustNewSpace(5,
		resource.Resource{Kind: resource.Cores, Units: 10},
		resource.Resource{Kind: resource.LLCWays, Units: 11},
		resource.Resource{Kind: resource.MemBW, Units: 10},
	)
}

// TestRandomWalkSamplesManagedRowsOnly is the regression test for the
// Sec. V source-of-benefit ablation bug: steps that landed on an
// unmanaged resource row were consumed by a continue, so restricted
// engines took systematically shorter walks than full SATORI. The walk
// must now sample rows from the managed set only.
func TestRandomWalkSamplesManagedRowsOnly(t *testing.T) {
	space := walkSpace(t)
	start := space.EqualSplit()

	moved := 0
	const trials = 300
	for seed := uint64(1); seed <= trials; seed++ {
		eng, err := New(space, Options{
			Seed:    seed,
			Managed: []resource.Kind{resource.LLCWays},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := space.NewConfig()
		eng.randomWalkInto(got, eng.recs.Update(space, start, 0, 0, 1), 1, nil)
		// Unmanaged rows must never move.
		for _, r := range []int{0, 2} {
			for j := range got.Alloc[r] {
				if got.Alloc[r][j] != start.Alloc[r][j] {
					t.Fatalf("seed %d: unmanaged row %d changed: %v -> %v",
						seed, r, start.Alloc[r], got.Alloc[r])
				}
			}
		}
		if !got.Equal(start) {
			moved++
		}
	}
	// Each single-step walk draws (from, to) jobs in the managed row;
	// the move succeeds whenever from != to (probability 0.8 with 5
	// jobs, every equal-split cell holding >= 2 units). The old
	// implementation first drew one of the 3 rows and gave up on the 2
	// unmanaged ones, capping the success rate near 0.27. Requiring
	// > 0.55 separates the two implementations decisively.
	if frac := float64(moved) / trials; frac < 0.55 {
		t.Errorf("single-step walk moved in %.0f%% of trials, want > 55%% (unmanaged rows are eating steps)", frac*100)
	}
}

// TestRandomWalkFullyManagedStillWalks pins the default (all rows
// managed) behavior: walks move and stay within the space.
func TestRandomWalkFullyManagedStillWalks(t *testing.T) {
	space := walkSpace(t)
	start := space.EqualSplit()
	eng, err := New(space, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got := space.NewConfig()
	eng.randomWalkInto(got, eng.recs.Update(space, start, 0, 0, 1), 16, nil)
	if err := space.Validate(got); err != nil {
		t.Fatalf("walk left the space: %v", err)
	}
	if got.Equal(start) {
		t.Error("16-step walk over the full space did not move")
	}
}
