package gp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// scratchCase is one model and the points it scores, with what a fresh
// scratch scores them to.
type scratchCase struct {
	m      *Incremental
	xs     [][]float64
	ys     []float64
	mv     *Moves
	pool   [][]float64
	kernel Matern52
	want   []float64 // the fresh panel's μ, ceilings and σ, the moved block's μ and σ, the batch's μ and σ
}

// score runs every scratch path of gp on c with s: the median length scale
// (Reset, which borrows its own scratch), a fresh panel's means, σ
// ceilings and σ, a moved block — its storage a spare of s when s holds one
// that fits, and handed back to s after — and a batch. It returns what they
// wrote.
func (c *scratchCase) score(s *PredictScratch) ([]float64, error) {
	if err := c.m.Reset(c.xs, c.ys); err != nil {
		return nil, err
	}
	q, mq := len(c.pool), c.mv.Len()
	out := make([]float64, 3*q+2*mq+2*q)
	mu, ceil, sigma := out[:q], out[q:2*q], out[2*q:3*q]
	c.m.PredictMeansInto(s, mu, &s.Points, Walks{})
	for i := 0; i < q; {
		i = c.m.SigmaCeilingsInto(s, ceil, i)
	}
	c.m.PredictSigmasInto(s, sigma)
	var b Block
	c.m.PredictMovedBlockInto(s, &b, out[3*q:3*q+mq], out[3*q+mq:3*q+2*mq], c.mv)
	c.m.PredictBatchInto(s, out[3*q+2*mq:4*q+2*mq], out[4*q+2*mq:], c.pool)
	s.Recycle(&b)
	return out, nil
}

// newScratchCases builds models of 5 to 64 inputs in dimensions 4 to 48
// with the heuristic kernel, each with a pool of 1 to 70 points.
func newScratchCases(t *testing.T) []*scratchCase {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	var cases []*scratchCase
	for _, shape := range [][4]int{{5, 2, 2, 6}, {16, 3, 5, 11}, {40, 4, 4, 9}, {64, 3, 16, 20}, {33, 6, 2, 4}} {
		m, mv, err := gridWindow(rng, shape[0], shape[1], shape[2], shape[3])
		if err != nil {
			t.Fatal(err)
		}
		c := &scratchCase{m: m, mv: mv, xs: cloneInputs(m.xbuf[:m.n]), pool: randomInputs(rng, 1+rng.Intn(70), m.dim)}
		c.ys = flatTargets(rng, c.xs)
		s := new(PredictScratch)
		s.Points.Load(c.pool)
		if c.want, err = c.score(s); err != nil {
			t.Fatal(err)
		}
		c.kernel = m.Kernel()
		cases = append(cases, c)
	}
	return cases
}

// TestSharedScratchMatchesAFreshOne: scratches off the shared free list,
// used by four goroutines at once, each lent scratch last sized and
// written by a model of another size and dimension and then scribbled with
// NaN (all but zeros, which must stay zero; its spare block buffers and
// caller inputs too),
// score every path of gp to the bits a fresh scratch scores it to: so no
// call reads what it did not write, and no two goroutines hold one scratch.
// The rounds must have filled blocks into spares.
func TestSharedScratchMatchesAFreshOne(t *testing.T) {
	const workers, rounds = 4, 60
	var wg sync.WaitGroup
	var fromSpare atomic.Int64
	errs := make(chan error, workers)
	for w := range workers {
		cases := newScratchCases(t) // a model is not safe for concurrent use
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := range rounds {
				c := cases[rng.Intn(len(cases))]
				s := TakeScratch()
				for _, buf := range append([][]float64{s.kmat, s.panel, s.post, s.inData, s.Points.Data}, s.spares[:]...) {
					buf = buf[:cap(buf)]
					for i := range buf {
						buf[i] = math.NaN()
					}
				}
				s.Points.Load(c.pool)
				if slices.ContainsFunc(s.spares[:], func(sp []float64) bool { return cap(sp) >= blockLen(len(c.xs), c.mv.Len()) }) {
					fromSpare.Add(1)
				}
				got, err := c.score(s)
				switch {
				case err != nil:
				case c.m.Kernel() != c.kernel:
					err = fmt.Errorf("kernel %+v, fresh scratch %+v", c.m.Kernel(), c.kernel)
				case !sameBitsAll(got, c.want):
					err = fmt.Errorf("scores differ from a fresh scratch's")
				case !allZero(s.zeros):
					err = fmt.Errorf("zeros written")
				}
				s.Release()
				if err != nil {
					errs <- fmt.Errorf("worker %d round %d: %w", w, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if fromSpare.Load() == 0 {
		t.Fatal("no block was filled into a spare")
	}
	t.Logf("%d of %d rounds filled their block into a spare", fromSpare.Load(), workers*rounds)
}

// TestUpdatesUseTheLentScratch: a model lent a scratch (UseScratch) takes
// none off the shared list through 40 appends and refits after its first, each of which
// selects the median length scale, and reaches the kernel and means a
// model borrowing its own scratch reaches, to the bit.
func TestUpdatesUseTheLentScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := randomInputs(rng, 41, 6)
	ys := flatTargets(rng, xs)
	own, lent := NewIncremental(Options{Noise: 1e-3}), NewIncremental(Options{Noise: 1e-3})
	s := new(PredictScratch)
	lent.UseScratch(s)
	for _, m := range []*Incremental{own, lent} {
		if err := m.Reset(xs[:1], ys[:1]); err != nil {
			t.Fatal(err)
		}
	}
	// taken reports how many scratches update took off an emptied list:
	// one it takes comes back to it.
	taken := func(update func() error) int {
		scratches.Lock()
		saved := scratches.free
		scratches.free = nil
		scratches.Unlock()
		if err := update(); err != nil {
			t.Fatal(err)
		}
		scratches.Lock()
		defer scratches.Unlock()
		n := len(scratches.free)
		scratches.free = saved
		return n
	}
	for n := 2; n <= len(xs); n++ {
		for _, m := range []*Incremental{own, lent} {
			update := func() error { return m.Append(xs[n-1], ys[:n]) }
			if n%7 == 0 {
				update = func() error { return m.Reset(xs[:n], ys[:n]) }
			}
			want := 1
			if m == lent {
				want = 0
			}
			if got := taken(update); got != want {
				t.Fatalf("%d inputs: the update took %d scratches off the list, want %d", n, got, want)
			}
		}
		if own.Kernel() != lent.Kernel() {
			t.Fatalf("%d inputs: kernel %+v with the lent scratch, %+v with its own", n, lent.Kernel(), own.Kernel())
		}
		for _, x := range xs {
			if a, b := own.PredictMean(x), lent.PredictMean(x); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%d inputs: mean %v with the lent scratch, %v with its own", n, b, a)
			}
		}
	}
	if cap(s.panel) == 0 {
		t.Fatal("the lent scratch was never written")
	}
}

func sameBitsAll(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestPointsGrowKeepsThePoints: Grow from 0 to 100 points to up to 100 more,
// in dimensions 1 to 12, with the storage too small and with room to spare,
// leaves every point it held where Column says it is, to the bit — across
// the panel cut, where the last panel widens and its points move.
func TestPointsGrowKeepsThePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	moved := 0
	for trial := 0; trial < 400; trial++ {
		dim, old := 1+rng.Intn(12), rng.Intn(101)
		n := old + rng.Intn(101)
		xs := randomInputs(rng, old, dim)
		var p Points
		if trial%2 == 1 {
			p.Data = make([]float64, 0, dim*(n+rng.Intn(40)))
		}
		p.Reset(0, dim)
		if old > 0 {
			p.Load(xs) // Load takes the dimension from xs
		}
		p.Grow(n)
		if p.Len() != n || len(p.Data) != n*dim {
			t.Fatalf("trial %d: Grow(%d) from %d leaves %d points, %d floats", trial, n, old, p.Len(), len(p.Data))
		}
		for c, x := range xs {
			at, stride := p.Column(c)
			for d, v := range x {
				if got := p.Data[at+d*stride]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("trial %d: Grow(%d) from %d in dimension %d: point %d coordinate %d = %v, want %v", trial, n, old, dim, c, d, got, v)
				}
			}
		}
		if old%panelWidth != 0 && n > old && dim > 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no last panel widened")
	}
	t.Logf("%d grows widened a last panel", moved)
}

// TestSparesKeepTheLargest: a scratch handed five block buffers keeps the
// three largest, and leaves every recycled block empty; a fill that needs
// more than its block holds takes the smallest spare that fits, its tail
// zeroed and its K* part as it was, and a fill no spare fits gets a new
// buffer and leaves the spares alone.
func TestSparesKeepTheLargest(t *testing.T) {
	var s PredictScratch
	for _, n := range []int{100, 500, 200, 50, 800} {
		b := Block{epoch: 7, data: make([]float64, n)}
		for i := range b.data {
			b.data[i] = float64(n)
		}
		s.Recycle(&b)
		if b.epoch != 0 || b.data != nil {
			t.Fatalf("a recycled block of %d keeps epoch %d and %d floats", n, b.epoch, cap(b.data))
		}
	}
	var caps []int
	for _, sp := range s.spares {
		caps = append(caps, cap(sp))
	}
	slices.Sort(caps)
	if !slices.Equal(caps, []int{200, 500, 800}) {
		t.Fatalf("spares %v, want the three largest, [200 500 800]", caps)
	}
	n, q := 10, 20 // blockLen(10, 20) floats: more than 200, at most 500
	if size := blockLen(n, q); size <= 200 || size > 500 {
		t.Fatalf("blockLen(%d, %d) = %d is no test of the smallest fit", n, q, size)
	}
	var b Block
	data := s.blockData(&b, n, q)
	if cap(data) != 500 || len(data) != blockLen(n, q) {
		t.Fatalf("the fill got %d of %d floats, want the 500-float spare", len(data), cap(data))
	}
	for i, v := range data {
		want := 0.0
		if i < n*q {
			want = 500
		}
		if v != want {
			t.Fatalf("float %d of the lent spare is %v, want %v (K* as it was, the tail zeroed)", i, v, want)
		}
	}
	if slices.ContainsFunc(s.spares[:], func(sp []float64) bool { return cap(sp) == 500 }) {
		t.Fatal("the lent spare is still on the scratch")
	}
	if data := s.blockData(&b, 100, 100); cap(data) < blockLen(100, 100) {
		t.Fatalf("a fill no spare fits got %d floats", cap(data))
	}
	caps = caps[:0]
	for _, sp := range s.spares {
		caps = append(caps, cap(sp))
	}
	slices.Sort(caps)
	if !slices.Equal(caps, []int{0, 200, 800}) {
		t.Fatalf("after the two fills the spares are %v, want [0 200 800]", caps)
	}
}

// TestTrimKeepsABlockNearItsSize: a kept block filled into a spare four
// times its size moves into storage of its own size, its data, epoch and
// stamps as they were, and the spare goes back to the scratch; a block
// within twice its size stays where it is.
func TestTrimKeepsABlockNearItsSize(t *testing.T) {
	n, q := 10, 20
	size := blockLen(n, q)
	s := PredictScratch{spares: [maxSpares][]float64{make([]float64, 0, 4*size)}}
	var b Block
	b.data = s.blockData(&b, n, q)
	for i := range b.data {
		b.data[i] = float64(i)
	}
	b.epoch = 3
	lent := b.data
	s.Trim(&b)
	if cap(b.data) > 2*len(b.data) || &b.data[0] == &lent[0] {
		t.Fatalf("a block of %d floats in a %d-float spare kept %d floats after Trim", size, cap(lent), cap(b.data))
	}
	if b.epoch != 3 || !slices.Equal(b.data, lent) {
		t.Fatalf("Trim changed the block: epoch %d, data equal %v", b.epoch, slices.Equal(b.data, lent))
	}
	if !slices.ContainsFunc(s.spares[:], func(sp []float64) bool { return cap(sp) == cap(lent) }) {
		t.Fatal("the trimmed storage is not a spare")
	}
	at := &b.data[0]
	s.Trim(&b)
	if &b.data[0] != at {
		t.Fatal("a block within twice its size moved")
	}
}
