package rdt

import (
	"fmt"
	"math"
	"testing"

	"satori/internal/resource"
	"satori/internal/stats"
)

// mapValidate is Plan.Validate before its CPU bitset, kept as the reference
// for the errors and their order: a map of the CPUs seen.
func mapValidate(p Plan) error {
	seenCPU := map[int]bool{}
	var maskUnion uint64
	for _, j := range p.Jobs {
		for _, cpu := range j.CPUSet {
			if seenCPU[cpu] {
				return fmt.Errorf("rdt: cpu %d assigned to multiple jobs", cpu)
			}
			seenCPU[cpu] = true
		}
		if j.CATMask == 0 {
			return fmt.Errorf("rdt: job %d has empty CAT mask", j.Job)
		}
		if j.CATMask&maskUnion != 0 {
			return fmt.Errorf("rdt: job %d CAT mask overlaps another job", j.Job)
		}
		maskUnion |= j.CATMask
		if !contiguous(j.CATMask) {
			return fmt.Errorf("rdt: job %d CAT mask %#x not contiguous", j.Job, j.CATMask)
		}
		if j.MBAPercent <= 0 || j.MBAPercent > 100 {
			return fmt.Errorf("rdt: job %d MBA percent %d out of range", j.Job, j.MBAPercent)
		}
	}
	return nil
}

// TestPlanValidateMatchesMapReference holds Validate to the map-based
// reference on a table of plans: valid ones, and invalid ones whose first
// fault is each check in turn, with CPUs inside and past the stack bitset's
// 256, negative, and a CPU clash after an earlier job's mask fault. A plan
// whose CPU ids span more than maxCPUSpan, which the reference accepted,
// is refused by name.
func TestPlanValidateMatchesMapReference(t *testing.T) {
	job := func(j int, mask uint64, mba int, cpus ...int) JobAllocation {
		return JobAllocation{Job: j, CPUSet: cpus, CATMask: mask, MBAPercent: mba}
	}
	plans := map[string]Plan{
		"empty":                     {},
		"valid":                     {Jobs: []JobAllocation{job(0, 0b0011, 50, 0, 1), job(1, 0b1100, 50, 2, 3)}},
		"valid past 256":            {Jobs: []JobAllocation{job(0, 0b01, 50, 0, 300), job(1, 0b10, 50, 1000, 4095)}},
		"valid negative":            {Jobs: []JobAllocation{job(0, 0b01, 50, -3, -1), job(1, 0b10, 50, 0)}},
		"no cpus":                   {Jobs: []JobAllocation{job(0, 0b01, 50), job(1, 0b10, 50)}},
		"cpu clash":                 {Jobs: []JobAllocation{job(0, 0b01, 50, 0), job(1, 0b10, 50, 0)}},
		"cpu clash in one job":      {Jobs: []JobAllocation{job(0, 0b01, 50, 5, 5)}},
		"cpu clash past 256":        {Jobs: []JobAllocation{job(0, 0b01, 50, 700, 3), job(1, 0b10, 50, 2, 700)}},
		"cpu clash at 63 and 64":    {Jobs: []JobAllocation{job(0, 0b01, 50, 63, 64), job(1, 0b10, 50, 64)}},
		"negative clash":            {Jobs: []JobAllocation{job(0, 0b01, 50, -7), job(1, 0b10, 50, 1, -7)}},
		"two clashes":               {Jobs: []JobAllocation{job(0, 0b01, 50, 1, 2), job(1, 0b10, 50, 2, 1)}},
		"empty mask":                {Jobs: []JobAllocation{job(0, 0, 50, 0)}},
		"overlapping masks":         {Jobs: []JobAllocation{job(0, 0b11, 50, 0), job(1, 0b10, 50, 1)}},
		"gapped mask":               {Jobs: []JobAllocation{job(0, 0b101, 50, 0)}},
		"zero MBA":                  {Jobs: []JobAllocation{job(0, 1, 0, 0)}},
		"MBA over 100":              {Jobs: []JobAllocation{job(0, 1, 110, 0)}},
		"mask fault before a clash": {Jobs: []JobAllocation{job(0, 0b01, 50, 0), job(1, 0b101, 50, 1), job(2, 0b1000, 50, 0)}},
		"clash before a mask fault": {Jobs: []JobAllocation{job(0, 0b01, 50, 0), job(1, 0b10, 50, 0), job(2, 0, 50, 1)}},
		"clash past a job's MBA":    {Jobs: []JobAllocation{job(0, 0b01, 50, 9), job(1, 0b10, 0, 9)}},
	}
	for name, p := range plans {
		got, want := p.Validate(), mapValidate(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Validate = %v, reference %v", name, got, want)
		}
	}
	for _, cpus := range [][]int{{0, maxCPUSpan}, {math.MinInt, math.MaxInt}, {-maxCPUSpan, 0}} {
		p := Plan{Jobs: []JobAllocation{job(0, 1, 50, cpus...)}}
		want := fmt.Sprintf("rdt: cpu ids %d to %d span more than %d", cpus[0], cpus[1], maxCPUSpan)
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Errorf("cpus %v: Validate = %v, want %q", cpus, err, want)
		}
	}
	edge := Plan{Jobs: []JobAllocation{job(0, 1, 50, 0, maxCPUSpan-1)}}
	if err := edge.Validate(); err != nil {
		t.Errorf("cpus spanning maxCPUSpan−1: %v", err)
	}
}

// TestPlanValidateAllocatesNothing: validating a compiled plan of up to 256
// CPUs makes no allocation.
func TestPlanValidateAllocatesNothing(t *testing.T) {
	space := resource.MustNewSpace(8,
		resource.Resource{Kind: resource.Cores, Units: 256},
		resource.Resource{Kind: resource.LLCWays, Units: 20},
		resource.Resource{Kind: resource.MemBW, Units: 10})
	plan, err := Compile(space, space.Random(stats.NewRNG(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times", n)
	}
}

// TestCompileCutsCPUSetsFromOneArray: Compile's CPU sets are the cores
// handed out in job order, as the appending construction gave them, and
// each set ends at its capacity, so an append to one never writes another.
func TestCompileCutsCPUSetsFromOneArray(t *testing.T) {
	space := paperSpace(t)
	rng := stats.NewRNG(5)
	for range 50 {
		c := space.Random(rng)
		plan, err := Compile(space, c)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for j, ja := range plan.Jobs {
			var want []int
			for range c.Alloc[0][j] {
				want = append(want, next)
				next++
			}
			if fmt.Sprint(ja.CPUSet) != fmt.Sprint(want) || cap(ja.CPUSet) != len(ja.CPUSet) {
				t.Fatalf("job %d: CPU set %v (cap %d), want %v", j, ja.CPUSet, cap(ja.CPUSet), want)
			}
		}
		_ = append(plan.Jobs[0].CPUSet, -1)
		if plan.Jobs[1].CPUSet[0] == -1 {
			t.Fatal("an append to job 0's CPU set wrote job 1's")
		}
	}
}
