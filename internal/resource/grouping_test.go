package resource

import (
	"testing"

	"satori/internal/stats"
)

func TestNewGroupingValidation(t *testing.T) {
	cases := []struct {
		name string
		m    []int
		ok   bool
	}{
		{"empty", nil, false},
		{"negative", []int{0, -1}, false},
		{"gap", []int{0, 2}, false}, // cluster 1 empty
		{"identity", []int{0, 1, 2}, true},
		{"many-to-one", []int{0, 1, 0, 1}, true},
	}
	for _, c := range cases {
		g, err := NewGrouping(c.m)
		if c.ok != (err == nil) {
			t.Errorf("%s: NewGrouping(%v) err = %v, want ok=%v", c.name, c.m, err, c.ok)
		}
		if err == nil && g.Jobs() != len(c.m) {
			t.Errorf("%s: Jobs() = %d, want %d", c.name, g.Jobs(), len(c.m))
		}
	}
}

func TestGroupingHelpers(t *testing.T) {
	g, err := NewGrouping([]int{0, 1, 0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Clusters != 3 || g.Size(0) != 2 || g.Size(1) != 2 || g.Size(2) != 1 {
		t.Fatalf("sizes wrong: %+v", g)
	}
	if g.IsSingleton() {
		t.Error("5 jobs in 3 clusters reported singleton")
	}
	if !SingletonGrouping(4).IsSingleton() {
		t.Error("SingletonGrouping not singleton")
	}
	rr := RoundRobinGrouping(5, 2)
	if rr.Clusters != 2 || rr.JobToCluster[4] != 0 {
		t.Fatalf("round-robin wrong: %+v", rr)
	}
	if rr.Equal(g) {
		t.Error("distinct groupings reported equal")
	}
	// Clamping.
	if k := RoundRobinGrouping(3, 8).Clusters; k != 3 {
		t.Errorf("RoundRobinGrouping(3, 8).Clusters = %d, want 3", k)
	}
	if k := RoundRobinGrouping(3, 0).Clusters; k != 1 {
		t.Errorf("RoundRobinGrouping(3, 0).Clusters = %d, want 1", k)
	}
}

// TestClusterSpaceDimensions checks the v = u − n + 1 substitution:
// Units′ = U − M + K per resource, Jobs′ = K.
func TestClusterSpaceDimensions(t *testing.T) {
	job := MustNewSpace(6,
		Resource{Cores, 12}, Resource{LLCWays, 11}, Resource{MemBW, 10})
	g := RoundRobinGrouping(6, 3)
	cs, err := g.ClusterSpace(job)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Jobs != 3 {
		t.Fatalf("cluster space jobs = %d, want 3", cs.Jobs)
	}
	for i, want := range []int{12 - 6 + 3, 11 - 6 + 3, 10 - 6 + 3} {
		if cs.Resources[i].Units != want {
			t.Errorf("resource %d units = %d, want %d", i, cs.Resources[i].Units, want)
		}
	}
	if _, err := RoundRobinGrouping(4, 2).ClusterSpace(job); err == nil {
		t.Error("mismatched job count accepted")
	}
	// Singleton grouping: the reduced space IS the job space.
	ss, err := SingletonGrouping(6).ClusterSpace(job)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Jobs != job.Jobs || ss.Resources[0].Units != job.Resources[0].Units {
		t.Errorf("singleton cluster space differs from job space: %+v", ss)
	}
}

// TestExpandAggregateRoundTrip enumerates the full reduced space and
// checks that every reduced configuration expands to a valid per-job
// configuration and aggregates back bit-exactly.
func TestExpandAggregateRoundTrip(t *testing.T) {
	job := MustNewSpace(5, Resource{Cores, 8}, Resource{LLCWays, 7})
	g, err := NewGrouping([]int{0, 1, 0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := g.ClusterSpace(job)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	cs.Enumerate(func(cc Config) bool {
		jc := job.NewConfig()
		g.ExpandInto(cc, jc)
		if err := job.Validate(jc); err != nil {
			t.Fatalf("expanded config invalid: %v (cluster %v)", err, cc.Alloc)
		}
		back := cs.NewConfig()
		g.AggregateInto(jc, back)
		if !back.Equal(cc) {
			t.Fatalf("round trip: %v -> %v -> %v", cc.Alloc, jc.Alloc, back.Alloc)
		}
		checked++
		return true
	})
	if checked == 0 {
		t.Fatal("enumerated nothing")
	}
}

// TestExpandRemainderOrder pins the deterministic within-cluster split:
// remainders go to the lowest-indexed member jobs.
func TestExpandRemainderOrder(t *testing.T) {
	job := MustNewSpace(4, Resource{Cores, 9})
	g, err := NewGrouping([]int{0, 1, 0, 0}) // cluster 0 = jobs {0,2,3}
	if err != nil {
		t.Fatal(err)
	}
	cs, err := g.ClusterSpace(job)
	if err != nil {
		t.Fatal(err)
	}
	cc := cs.NewConfig()
	cc.Alloc[0][0] = 5 // physical total 5+3-1 = 7 over 3 members -> 3,2,2
	cc.Alloc[0][1] = 2 // physical total 2+1-1 = 2
	if err := cs.Validate(cc); err != nil {
		t.Fatal(err)
	}
	jc := job.NewConfig()
	g.ExpandInto(cc, jc)
	want := []int{3, 2, 2, 2}
	for j, u := range want {
		if jc.Alloc[0][j] != u {
			t.Fatalf("expanded row = %v, want %v", jc.Alloc[0], want)
		}
	}
}

// TestSingletonExpandIdentity: under the identity grouping ExpandInto and
// AggregateInto are the identity map — the contract behind clustered SATORI
// being draw-identical to per-job SATORI when K ≥ jobs.
func TestSingletonExpandIdentity(t *testing.T) {
	job := MustNewSpace(4, Resource{Cores, 10}, Resource{LLCWays, 11}, Resource{MemBW, 10})
	g := SingletonGrouping(4)
	cs, err := g.ClusterSpace(job)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 50; i++ {
		c := job.Random(rng)
		got := job.NewConfig()
		if g.ExpandInto(c, got); !got.Equal(c) {
			t.Fatalf("ExpandInto not identity: %v -> %v", c.Alloc, got.Alloc)
		}
		got = cs.NewConfig()
		if g.AggregateInto(c, got); !got.Equal(c) {
			t.Fatalf("AggregateInto not identity: %v -> %v", c.Alloc, got.Alloc)
		}
	}
}
