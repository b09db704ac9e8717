package gp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
// ceilings and σ, a moved block and a batch. It returns what they wrote.
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
// NaN (all but zeros, which must stay zero), score every path of gp to the
// bits a fresh scratch scores it to: so no call reads what it did not
// write, and no two goroutines hold one scratch.
func TestSharedScratchMatchesAFreshOne(t *testing.T) {
	const workers, rounds = 4, 60
	var wg sync.WaitGroup
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
				for _, buf := range [][]float64{s.kmat, s.panel, s.Points.Data} {
					buf = buf[:cap(buf)]
					for i := range buf {
						buf[i] = math.NaN()
					}
				}
				s.Points.Load(c.pool)
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
