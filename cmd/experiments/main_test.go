package main

import (
	"strings"
	"testing"

	"satori/internal/harness"
)

// TestBadFlagsRefused: harness.ExpOptions reads a zero seed as seed 42, a
// tick count <= 0 as 600 and a negative mix cap as the paper's full scale,
// so -seed 0, -ticks 0 and -mixes -1 used to run something other than what
// was asked for. Each is refused by flag name, as is a negative -parallel.
func TestBadFlagsRefused(t *testing.T) {
	for _, c := range []struct {
		flag            string
		ticks           int
		seed            uint64
		mixes, parallel int
	}{
		{"-ticks", 0, 42, 2, 1},
		{"-ticks", -5, 42, 2, 1},
		{"-seed", 60, 0, 2, 1},
		{"-mixes", 60, 42, -1, 1},
		{"-parallel", 60, 42, 2, -1},
	} {
		opt, err := expOptions(c.ticks, c.seed, c.mixes, c.parallel)
		if err == nil {
			t.Errorf("%s: accepted (ticks %d, seed %d, mixes %d, parallel %d) as %+v", c.flag, c.ticks, c.seed, c.mixes, c.parallel, opt)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: error does not name the flag: %v", c.flag, err)
		}
	}
	// The smallest values that mean what they say pass through unchanged.
	want := harness.ExpOptions{Ticks: 1, Seed: 1, MixLimit: 0, Workers: 0}
	if opt, err := expOptions(1, 1, 0, 0); err != nil || opt != want {
		t.Errorf("expOptions(1, 1, 0, 0) = %+v, %v; want %+v", opt, err, want)
	}
}
