// Package resource models partitionable CMP resources and the resource
// partitioning configuration space of Sec. II of the SATORI paper.
//
// A Space describes how many units of each shared architectural resource
// exist (cores, LLC ways, memory-bandwidth steps, power-cap units) and how
// many jobs are co-located. A Config is one "resource partitioning
// configuration": an integer allocation matrix assigning every job at
// least one unit of every resource. The package supports exact counting
// and enumeration of the space (S_conf = Π C(U_r−1, M−1)), uniform random
// sampling, Euclidean distance between configurations (Fig. 15), and the
// single-unit-move neighborhood used by local-search policies.
package resource

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"satori/internal/stats"
)

// Kind identifies one partitionable architectural resource.
type Kind int

const (
	// Cores is the number of physical cores assigned via affinity
	// (taskset in the paper).
	Cores Kind = iota
	// LLCWays is the number of last-level-cache ways assigned via
	// Intel CAT-style way masks.
	LLCWays
	// MemBW is memory bandwidth in Intel MBA-style throttle steps.
	MemBW
	// Power is a RAPL-style power-cap share.
	Power
)

var kindNames = map[Kind]string{
	Cores:   "cores",
	LLCWays: "llc-ways",
	MemBW:   "mem-bw",
	Power:   "power",
}

// String returns the resource's short name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Resource is one partitionable resource with its total unit count.
type Resource struct {
	Kind  Kind
	Units int
}

// Space is a configuration search space: which resources are partitioned,
// with how many units each, among how many co-located jobs.
type Space struct {
	Resources []Resource
	Jobs      int
}

// NewSpace builds a Space after validating that every resource has at
// least one unit per job (otherwise no valid configuration exists).
func NewSpace(jobs int, resources ...Resource) (*Space, error) {
	if jobs < 1 {
		return nil, fmt.Errorf("resource: space needs at least 1 job, got %d", jobs)
	}
	if len(resources) == 0 {
		return nil, fmt.Errorf("resource: space needs at least 1 resource")
	}
	for _, r := range resources {
		if r.Units < jobs {
			return nil, fmt.Errorf("resource: %s has %d units for %d jobs; every job needs at least 1 unit",
				r.Kind, r.Units, jobs)
		}
	}
	rs := make([]Resource, len(resources))
	copy(rs, resources)
	return &Space{Resources: rs, Jobs: jobs}, nil
}

// MustNewSpace is NewSpace that panics on error, for tests and examples
// with static arguments.
func MustNewSpace(jobs int, resources ...Resource) *Space {
	s, err := NewSpace(jobs, resources...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the dimensionality of a configuration viewed as a vector:
// one coordinate per (resource, job) pair.
func (s *Space) Dim() int { return len(s.Resources) * s.Jobs }

// Size returns the exact number of valid configurations,
// Π_r C(U_r−1, M−1), as a float64 (spaces overflow int64 quickly; the
// paper's own examples are small, and the value is only used for
// reporting and for deciding between exact and approximate search).
func (s *Space) Size() float64 {
	total := 1.0
	for _, r := range s.Resources {
		total *= Binomial(r.Units-1, s.Jobs-1)
	}
	return total
}

// Binomial returns C(n, k) as a float64, 0 when k < 0 or k > n.
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1.0
	for i := 0; i < k; i++ {
		res = res * float64(n-i) / float64(i+1)
	}
	return math.Round(res)
}

// Config is one resource partitioning configuration: Alloc[r][j] is the
// number of units of resource r assigned to job j. Every entry is >= 1
// and each row sums to the resource's total units.
type Config struct {
	Alloc [][]int
}

// NewConfig allocates an all-zero configuration shaped for the space.
// Callers must fill it and should Validate before use.
func (s *Space) NewConfig() Config {
	a := make([][]int, len(s.Resources))
	for r := range a {
		a[r] = make([]int, s.Jobs)
	}
	return Config{Alloc: a}
}

// Validate reports whether c is a well-formed configuration for s.
func (s *Space) Validate(c Config) error {
	if len(c.Alloc) != len(s.Resources) {
		return fmt.Errorf("resource: config has %d resources, space has %d", len(c.Alloc), len(s.Resources))
	}
	for r, row := range c.Alloc {
		if len(row) != s.Jobs {
			return fmt.Errorf("resource: config resource %s has %d jobs, space has %d",
				s.Resources[r].Kind, len(row), s.Jobs)
		}
		sum := 0
		for j, u := range row {
			if u < 1 {
				return fmt.Errorf("resource: job %d gets %d units of %s; minimum is 1",
					j, u, s.Resources[r].Kind)
			}
			sum += u
		}
		if sum != s.Resources[r].Units {
			return fmt.Errorf("resource: %s allocations sum to %d, want %d",
				s.Resources[r].Kind, sum, s.Resources[r].Units)
		}
	}
	return nil
}

// CopyFrom copies o's allocations into c's existing storage. The two
// configurations must be shaped for the same space.
func (c Config) CopyFrom(o Config) {
	if len(c.Alloc) != len(o.Alloc) {
		panic(fmt.Sprintf("resource: CopyFrom shape mismatch: %d vs %d resources", len(c.Alloc), len(o.Alloc)))
	}
	for r := range o.Alloc {
		copy(c.Alloc[r], o.Alloc[r])
	}
}

// Clone returns a deep copy of c.
func (c Config) Clone() Config {
	a := make([][]int, len(c.Alloc))
	for r := range c.Alloc {
		a[r] = make([]int, len(c.Alloc[r]))
		copy(a[r], c.Alloc[r])
	}
	return Config{Alloc: a}
}

// Equal reports whether two configurations allocate identically.
func (c Config) Equal(o Config) bool {
	if len(c.Alloc) != len(o.Alloc) {
		return false
	}
	for r := range c.Alloc {
		if len(c.Alloc[r]) != len(o.Alloc[r]) {
			return false
		}
		for j := range c.Alloc[r] {
			if c.Alloc[r][j] != o.Alloc[r][j] {
				return false
			}
		}
	}
	return true
}

// Key returns a canonical string encoding of c, usable as a map key for
// the per-goal performance records of Sec. III-B: "3,3,4|4,4,3", rows
// separated by '|' and jobs by ','.
func (c Config) Key() string {
	var buf [64]byte
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends c's Key to dst and returns the extended slice, so a
// map keyed by Key can be probed as m[string(buf)], which does not
// allocate.
func (c Config) AppendKey(dst []byte) []byte {
	for r, row := range c.Alloc {
		if r > 0 {
			dst = append(dst, '|')
		}
		for j, u := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(u), 10)
		}
	}
	return dst
}

// String renders c for logs: "cores[3 3 4] llc-ways[4 4 3]".
func (s *Space) String(c Config) string {
	var b strings.Builder
	for r, row := range c.Alloc {
		if r > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s%v", s.Resources[r].Kind, row)
	}
	return b.String()
}

// EqualSplit returns the configuration that divides every resource as
// evenly as possible among jobs (the S_init of Algorithm 1). Remainder
// units go to the lowest-indexed jobs.
func (s *Space) EqualSplit() Config {
	c := s.NewConfig()
	for r, res := range s.Resources {
		base := res.Units / s.Jobs
		rem := res.Units % s.Jobs
		for j := 0; j < s.Jobs; j++ {
			c.Alloc[r][j] = base
			if j < rem {
				c.Alloc[r][j]++
			}
		}
	}
	return c
}

// Random samples a configuration uniformly at random: each resource row is
// a uniform composition of U units into M positive parts, drawn via the
// stars-and-bars bijection (choose M−1 distinct cut points among U−1).
func (s *Space) Random(rng *stats.RNG) Config {
	c := s.NewConfig()
	s.RandomInto(rng, c)
	return c
}

// RandomInto fills the already-shaped configuration c with a uniform
// random sample, consuming exactly the same RNG draws as Random. It is the
// allocation-free variant for hot loops that pool their configurations.
func (s *Space) RandomInto(rng *stats.RNG, c Config) {
	for r, res := range s.Resources {
		randomComposition(rng, res.Units, s.Jobs, c.Alloc[r])
	}
}

// randomComposition fills out with a uniform composition of units into
// len(out) positive parts.
func randomComposition(rng *stats.RNG, units, parts int, out []int) {
	if parts == 1 {
		out[0] = units
		return
	}
	// Sample parts-1 distinct cut points from {1, ..., units-1} with a
	// partial Fisher-Yates over the candidate positions, mark cut p as bit
	// p-1 of a bitset and read the bits back in ascending order. Both
	// work arrays live on the stack for every unit count up to 65.
	n := units - 1
	k := parts - 1
	var posArr [64]int
	var setArr [1]uint64
	var pos []int
	var set []uint64
	if n <= len(posArr) {
		pos, set = posArr[:n], setArr[:]
	} else {
		pos, set = make([]int, n), make([]uint64, (n+63)/64)
	}
	for i := range pos {
		pos[i] = i + 1
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		pos[i], pos[j] = pos[j], pos[i]
	}
	for _, cut := range pos[:k] {
		b := uint(cut - 1)
		set[b/64] |= 1 << (b % 64)
	}
	prev, i := 0, 0
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			cut := w*64 + bits.TrailingZeros64(word) + 1
			out[i] = cut - prev
			prev = cut
			i++
		}
	}
	out[parts-1] = units - prev
}

// Enumerate calls fn for every valid configuration in the space, in a
// deterministic order. If fn returns false, enumeration stops early.
// The Config passed to fn is reused between calls; clone it to retain it.
func (s *Space) Enumerate(fn func(Config) bool) {
	c := s.NewConfig()
	s.enumerateResource(0, c, fn)
}

func (s *Space) enumerateResource(r int, c Config, fn func(Config) bool) bool {
	if r == len(s.Resources) {
		return fn(c)
	}
	return enumerateCompositions(s.Resources[r].Units, s.Jobs, c.Alloc[r], 0, func() bool {
		return s.enumerateResource(r+1, c, fn)
	})
}

// enumerateCompositions iterates all ways to write units as a sum of
// parts positive integers into out[idx:], invoking next for each.
func enumerateCompositions(units, parts int, out []int, idx int, next func() bool) bool {
	if idx == parts-1 {
		out[idx] = units
		return next()
	}
	remainingParts := parts - idx - 1
	for u := 1; u <= units-remainingParts; u++ {
		out[idx] = u
		if !enumerateCompositions(units-u, parts, out, idx+1, next) {
			return false
		}
	}
	return true
}

// Distance returns the Euclidean distance between two configurations
// viewed as vectors of per-(resource, job) unit counts — the proximity
// measure of Fig. 15.
func Distance(a, b Config) float64 {
	sum := 0.0
	for r := range a.Alloc {
		for j := range a.Alloc[r] {
			d := float64(a.Alloc[r][j] - b.Alloc[r][j])
			sum += d * d
		}
	}
	return math.Sqrt(sum)
}

// MaxDistance returns the largest possible Distance between two
// configurations in s (both rows fully concentrated on different jobs).
func (s *Space) MaxDistance() float64 {
	if s.Jobs < 2 {
		return 0
	}
	sum := 0.0
	for _, r := range s.Resources {
		// Extremes: job a holds U−(M−1) units vs 1 unit, job b the
		// reverse; remaining jobs hold 1 in both.
		spread := float64(r.Units - s.Jobs)
		sum += 2 * spread * spread
	}
	return math.Sqrt(sum)
}

// Vector encodes c as normalized resource shares in [0, 1]^Dim, the input
// representation used by the Gaussian-process proxy model.
func (s *Space) Vector(c Config) []float64 {
	return s.VectorInto(make([]float64, 0, s.Dim()), c)
}

// VectorInto appends c's encoding into dst[:0] and returns the resulting
// slice — the reuse-friendly variant of Vector for per-tick candidate
// scoring.
func (s *Space) VectorInto(dst []float64, c Config) []float64 {
	dst = dst[:0]
	for r, row := range c.Alloc {
		units := float64(s.Resources[r].Units)
		for _, u := range row {
			dst = append(dst, float64(u)/units)
		}
	}
	return dst
}

// Neighbors returns every configuration reachable from c by moving one
// unit of one resource from one job to another. This is the move set used
// by gradient-descent-style policies (PARTIES) and by hill-climbing oracle
// approximation.
func (s *Space) Neighbors(c Config) []Config {
	var out []Config
	for r := range c.Alloc {
		for from := 0; from < s.Jobs; from++ {
			if c.Alloc[r][from] <= 1 {
				continue // would drop below the 1-unit floor
			}
			for to := 0; to < s.Jobs; to++ {
				if to == from {
					continue
				}
				n := c.Clone()
				n.Alloc[r][from]--
				n.Alloc[r][to]++
				out = append(out, n)
			}
		}
	}
	return out
}

// Move returns a copy of c with one unit of resource r moved from job
// `from` to job `to`, and reports whether the move was legal.
func (s *Space) Move(c Config, r, from, to int) (Config, bool) {
	if r < 0 || r >= len(c.Alloc) || from == to ||
		from < 0 || from >= s.Jobs || to < 0 || to >= s.Jobs {
		return Config{}, false
	}
	if c.Alloc[r][from] <= 1 {
		return Config{}, false
	}
	n := c.Clone()
	n.Alloc[r][from]--
	n.Alloc[r][to]++
	return n, true
}

// MoveInPlace applies the one-unit move directly to c, reporting whether
// it was legal (same legality rules as Move). c is unchanged on an illegal
// move.
func (s *Space) MoveInPlace(c Config, r, from, to int) bool {
	if r < 0 || r >= len(c.Alloc) || from == to ||
		from < 0 || from >= s.Jobs || to < 0 || to >= s.Jobs {
		return false
	}
	if c.Alloc[r][from] <= 1 {
		return false
	}
	c.Alloc[r][from]--
	c.Alloc[r][to]++
	return true
}

// Imbalance returns the mean absolute deviation of c's unit shares from
// the equal split, averaged over resources and jobs. Used to construct the
// "good" low-imbalance initial sample set (Sec. V).
func (s *Space) Imbalance(c Config) float64 {
	sum := 0.0
	n := 0
	for r, row := range c.Alloc {
		equal := float64(s.Resources[r].Units) / float64(s.Jobs)
		for _, u := range row {
			sum += math.Abs(float64(u) - equal)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// InitialSet returns the SATORI initial configuration set S_init: the
// equal split plus low-imbalance perturbations of it (one unit shifted in
// a single resource), up to max configurations. The paper notes that
// seeding BO with such "good" configurations instead of random ones
// improves final quality by 1-3%.
func (s *Space) InitialSet(max int) []Config {
	if max < 1 {
		max = 1
	}
	set := []Config{s.EqualSplit()}
	seen := map[string]bool{set[0].Key(): true}
	var key []byte
	for _, n := range s.Neighbors(set[0]) {
		if len(set) >= max {
			break
		}
		if key = n.AppendKey(key[:0]); !seen[string(key)] {
			seen[string(key)] = true
			set = append(set, n)
		}
	}
	return set
}

// RandomDistinct samples up to n distinct configurations uniformly at
// random (without repetition, per the Random policy definition in
// Sec. IV). If the space is smaller than n, all configurations are
// returned.
func (s *Space) RandomDistinct(rng *stats.RNG, n int) []Config {
	if size := s.Size(); size <= float64(n)*2 && size < 1<<20 {
		// Small space: enumerate then shuffle for exact sampling
		// without repetition.
		var all []Config
		s.Enumerate(func(c Config) bool {
			all = append(all, c.Clone())
			return true
		})
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		if len(all) > n {
			all = all[:n]
		}
		return all
	}
	out := make([]Config, 0, n)
	seen := make(map[string]bool, n)
	var key []byte
	for len(out) < n {
		c := s.Random(rng)
		if key = c.AppendKey(key[:0]); !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, c)
		}
	}
	return out
}
