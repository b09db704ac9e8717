package rdt

import (
	"math/bits"
	"strings"
	"testing"

	"satori/internal/resource"
	"satori/internal/sim"
	"satori/internal/stats"
	"satori/internal/workloads"
)

func paperSpace(t *testing.T) *resource.Space {
	t.Helper()
	space, err := sim.DefaultMachine().Space(5)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

func TestCompileEqualSplit(t *testing.T) {
	space := paperSpace(t)
	plan, err := Compile(space, space.EqualSplit())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 5 {
		t.Fatalf("plan has %d jobs", len(plan.Jobs))
	}
	// All 10 cores covered exactly once.
	total := 0
	for _, j := range plan.Jobs {
		total += len(j.CPUSet)
	}
	if total != 10 {
		t.Errorf("CPU sets cover %d cores, want 10", total)
	}
	// All 11 ways covered exactly once.
	var union uint64
	ways := 0
	for _, j := range plan.Jobs {
		union |= j.CATMask
		ways += bits.OnesCount64(j.CATMask)
	}
	if ways != 11 || union != (1<<11)-1 {
		t.Errorf("CAT masks cover %d ways, union %#x", ways, union)
	}
}

func TestCompileRejectsInvalidConfig(t *testing.T) {
	space := paperSpace(t)
	if _, err := Compile(space, space.NewConfig()); err == nil {
		t.Error("invalid config compiled")
	}
}

func TestCATMasksContiguousProperty(t *testing.T) {
	space := paperSpace(t)
	rng := stats.NewRNG(4)
	for i := 0; i < 500; i++ {
		c := space.Random(rng)
		plan, err := Compile(space, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("random config %s compiled to invalid plan: %v", c.Key(), err)
		}
		for j, ja := range plan.Jobs {
			if got := bits.OnesCount64(ja.CATMask); got != c.Alloc[1][j] {
				t.Fatalf("job %d mask has %d ways, config says %d", j, got, c.Alloc[1][j])
			}
			if len(ja.CPUSet) != c.Alloc[0][j] {
				t.Fatalf("job %d cpuset size %d, config says %d", j, len(ja.CPUSet), c.Alloc[0][j])
			}
		}
	}
}

func TestMBAPercentSteps(t *testing.T) {
	space := paperSpace(t)
	c := space.EqualSplit() // bw: 2,2,2,2,2 of 10 units -> 20% each
	plan, err := Compile(space, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plan.Jobs {
		if j.MBAPercent != 20 {
			t.Errorf("job %d MBA = %d%%, want 20%%", j.Job, j.MBAPercent)
		}
	}
}

func TestPowerShares(t *testing.T) {
	spec := sim.DefaultMachine()
	spec.PowerUnits = 8
	space, err := spec.Space(2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(space, space.EqualSplit())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plan.Jobs {
		if j.PowerShare != 0.5 {
			t.Errorf("job %d power share %g, want 0.5", j.Job, j.PowerShare)
		}
	}
	if !strings.Contains(plan.String(), "PL=50%") {
		t.Error("String omits power share")
	}
}

func TestContiguous(t *testing.T) {
	cases := []struct {
		m    uint64
		want bool
	}{
		{0, false}, {1, true}, {0b110, true}, {0b1010, false},
		{0b111000, true}, {1 << 63, true}, {0xFF, true}, {0x101, false},
	}
	for _, c := range cases {
		if got := contiguous(c.m); got != c.want {
			t.Errorf("contiguous(%#b) = %v, want %v", c.m, got, c.want)
		}
	}
}

func TestPlanValidateCatchesViolations(t *testing.T) {
	good := Plan{Jobs: []JobAllocation{
		{Job: 0, CPUSet: []int{0, 1}, CATMask: 0b0011, MBAPercent: 50},
		{Job: 1, CPUSet: []int{2, 3}, CATMask: 0b1100, MBAPercent: 50},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	overlapCPU := Plan{Jobs: []JobAllocation{
		{Job: 0, CPUSet: []int{0}, CATMask: 0b01, MBAPercent: 50},
		{Job: 1, CPUSet: []int{0}, CATMask: 0b10, MBAPercent: 50},
	}}
	if overlapCPU.Validate() == nil {
		t.Error("overlapping CPU sets accepted")
	}
	overlapMask := Plan{Jobs: []JobAllocation{
		{Job: 0, CPUSet: []int{0}, CATMask: 0b11, MBAPercent: 50},
		{Job: 1, CPUSet: []int{1}, CATMask: 0b10, MBAPercent: 50},
	}}
	if overlapMask.Validate() == nil {
		t.Error("overlapping CAT masks accepted")
	}
	gapMask := Plan{Jobs: []JobAllocation{
		{Job: 0, CPUSet: []int{0}, CATMask: 0b101, MBAPercent: 50},
	}}
	if gapMask.Validate() == nil {
		t.Error("non-contiguous CAT mask accepted")
	}
	emptyMask := Plan{Jobs: []JobAllocation{
		{Job: 0, CPUSet: []int{0}, CATMask: 0, MBAPercent: 50},
	}}
	if emptyMask.Validate() == nil {
		t.Error("empty CAT mask accepted")
	}
	badMBA := Plan{Jobs: []JobAllocation{
		{Job: 0, CPUSet: []int{0}, CATMask: 1, MBAPercent: 0},
	}}
	if badMBA.Validate() == nil {
		t.Error("zero MBA percent accepted")
	}
}

func newPlatform(t *testing.T) *SimPlatform {
	t.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sim.DefaultMachine(), mixes[0].Profiles, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSimPlatform(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSimPlatformRoundTrip(t *testing.T) {
	p := newPlatform(t)
	space := p.Space()
	if space.Jobs != 5 {
		t.Fatalf("space jobs = %d", space.Jobs)
	}
	names := p.JobNames()
	if len(names) != 5 || names[0] != "blackscholes" {
		t.Errorf("JobNames = %v", names)
	}
	// Apply a new config; plan and simulator state must both update.
	cfg, ok := space.Move(space.EqualSplit(), 0, 0, 1)
	if !ok {
		t.Fatal("move failed")
	}
	if err := p.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	if !p.Current().Equal(cfg) {
		t.Error("Current does not reflect Apply")
	}
	if got := len(p.Plan().Jobs[1].CPUSet); got != cfg.Alloc[0][1] {
		t.Errorf("plan cpuset size %d, config %d", got, cfg.Alloc[0][1])
	}
	// Invalid config must be rejected without touching state.
	if err := p.Apply(space.NewConfig()); err == nil {
		t.Error("invalid config applied")
	}
	if !p.Current().Equal(cfg) {
		t.Error("failed Apply mutated state")
	}
}

func TestSimPlatformSampling(t *testing.T) {
	p := newPlatform(t)
	ips, err := p.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 5 {
		t.Fatalf("sample has %d jobs", len(ips))
	}
	for j, v := range ips {
		if v <= 0 {
			t.Errorf("job %d IPS = %g", j, v)
		}
	}
	iso, err := p.MeasureIsolated()
	if err != nil {
		t.Fatal(err)
	}
	for j := range iso {
		if iso[j] < ips[j] {
			t.Errorf("job %d isolated %g below co-located %g (beyond noise?)", j, iso[j], ips[j])
		}
	}
	if now := p.Simulator().Now(); now != sim.TickSeconds {
		t.Errorf("Sample should advance exactly one tick, clock at %g s", now)
	}
}

func TestCompileArbitrarySpacesProperty(t *testing.T) {
	// Compile must yield a hardware-valid plan for ANY space shape and
	// ANY valid configuration, not just the paper testbed.
	rng := stats.NewRNG(77)
	for trial := 0; trial < 300; trial++ {
		jobs := 2 + rng.Intn(5)
		space, err := resource.NewSpace(jobs,
			resource.Resource{Kind: resource.Cores, Units: jobs + rng.Intn(12)},
			resource.Resource{Kind: resource.LLCWays, Units: jobs + rng.Intn(20)},
			resource.Resource{Kind: resource.MemBW, Units: jobs + rng.Intn(12)},
		)
		if err != nil {
			t.Fatal(err)
		}
		c := space.Random(rng)
		plan, err := Compile(space, c)
		if err != nil {
			t.Fatalf("compile failed for %s: %v", c.Key(), err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("invalid plan for %s: %v", c.Key(), err)
		}
	}
}
