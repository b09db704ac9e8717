package main

import (
	"math"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shifts between a fast and a slow mode
// every few seconds (a busy neighbour on the same physical core): a fixed
// pure-compute loop measured 4.8–6.5 µs there within one half-minute, and
// ten 9-second runs of node_steady spread 24 % between quartiles. No
// amount of medians inside a run removes that, because a whole run can sit
// in one mode.
//
// So every time the benchmark reports is corrected for the host's speed at
// the moment it was taken. The yardstick below is a fixed piece of
// arithmetic that belongs to the benchmark (nothing in the repository can
// make it faster), shaped like the engine's hot loops. It is timed every
// couple of milliseconds next to the measured operations; each ~100 ms
// chunk of operations is then scaled by yardRefNs / (the chunk's median
// yardstick time). A reported second is therefore a second of a host on
// which the yardstick takes exactly yardRefNs. The same correction brought
// the spread of those ten runs down to 5 %. Raw host times are printed
// next to the corrected ones.

// yardRefNs defines the reference host: the yardstick takes 60 µs there
// (about what it takes on this sandbox in its fast mode).
const yardRefNs = 60000.0

const (
	yardN = 48 // factor rows
	yardM = 64 // right-hand-side columns
)

var yardL = func() []float64 {
	l := make([]float64, yardN*yardN)
	for i := 0; i < yardN; i++ {
		for j := 0; j < i; j++ {
			l[i*yardN+j] = 0.01 * float64((i*7+j*3)%11)
		}
		l[i*yardN+i] = 1.5
	}
	return l
}()

// yardstick fills a 48×64 matrix through a Matérn-like transform and
// forward-substitutes it against a fixed lower-triangular factor: streamed
// multiply-adds over a working set that fits in L1/L2, plus exp calls —
// the instruction mix of the GP scoring that dominates a tick. b is the
// caller's 48×64 scratch, so that concurrent samplers do not share one.
func yardstick(b []float64) time.Duration {
	t := time.Now()
	for i := range b {
		d := float64(i%97) * 0.013
		b[i] = (1 + d + d*d/3) * math.Exp(-d)
	}
	for i := 0; i < yardN; i++ {
		yi := b[i*yardM : (i+1)*yardM]
		for k := 0; k < i; k++ {
			lik := yardL[i*yardN+k]
			yk := b[k*yardM : (k+1)*yardM]
			for c := range yi {
				yi[c] -= lik * yk[c]
			}
		}
		inv := 1 / yardL[i*yardN+i]
		for c := range yi {
			yi[c] *= inv
		}
	}
	return time.Since(t)
}

func newYardScratch() []float64 { return make([]float64, yardN*yardM) }

// yard is a yardstick sampler for a workload that keeps `cores` CPUs busy.
// With one core it times the yardstick inline. With more it times one
// yardstick per core at the same moment, because the cores of this sandbox
// slow down independently (fleet_sparse lost a quarter of its speed while an
// inline yardstick saw nothing), and combines them the way a shared work
// queue combines its workers: speeds add, so the times' harmonic mean
// stands for the host.
type yard struct {
	scratch [][]float64
	ds      []float64
}

func newYard(cores int) *yard {
	y := &yard{ds: make([]float64, max(1, cores))}
	for range y.ds {
		y.scratch = append(y.scratch, newYardScratch())
	}
	return y
}

// sample returns one host-speed sample in yardstick nanoseconds.
func (y *yard) sample() float64 {
	if len(y.ds) == 1 {
		return float64(yardstick(y.scratch[0]))
	}
	var wg sync.WaitGroup
	for i := 1; i < len(y.ds); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			y.ds[i] = float64(yardstick(y.scratch[i]))
		}(i)
	}
	y.ds[0] = float64(yardstick(y.scratch[0]))
	wg.Wait()
	inv := 0.0
	for _, d := range y.ds {
		inv += 1 / d
	}
	return float64(len(y.ds)) / inv
}

// meter records operations in chunks and corrects each chunk by the host's
// speed while it ran.
type meter struct {
	// ops and rawOps are every operation's wall time in ns, corrected and
	// as measured; rates and rawRates the control intervals per second of
	// every chunk.
	ops, rawOps     []float64
	rates, rawRates []float64
	// factors is every chunk's yardRefNs / median yardstick time.
	factors []float64
	// wallOps leaves ops uncorrected: for operations whose time is set by
	// wall-clock constants rather than by the CPU (the daemon's requests
	// wait out the mutex's 1 ms starvation threshold behind a free-running
	// tick loop), scaling by CPU speed would add the host's noise instead
	// of removing it.
	wallOps bool

	yard       *yard
	chunkFrom  int     // index in rawOps where the open chunk starts
	chunkNs    float64 // operation time in the open chunk
	chunkTicks float64
	yards      []float64 // yardstick samples of the open chunk
	sinceYard  time.Duration
}

const (
	chunkLen  = 100 * time.Millisecond // close a chunk after this much operation time
	yardEvery = 2 * time.Millisecond   // operation time between yardstick samples
)

// newMeter returns a meter for a workload that keeps `cores` CPUs busy.
func newMeter(capacity, cores int) *meter {
	return &meter{
		ops: make([]float64, 0, capacity), rawOps: make([]float64, 0, capacity),
		yard: newYard(cores),
	}
}

// observe adds one operation that took d to the open chunk, and times the
// yardstick once enough operation time has passed since the last sample —
// so the caller reads the clock again afterwards.
func (m *meter) observe(d time.Duration) {
	m.rawOps = append(m.rawOps, float64(d))
	m.sinceYard += d
	if m.sinceYard >= yardEvery {
		m.yards = append(m.yards, m.yard.sample())
		m.sinceYard = 0
	}
}

// record is observe for a closed loop, where operations run back to back:
// the chunk's wall time is the sum of its operations, and it closes by
// itself.
func (m *meter) record(d time.Duration, ticks float64) {
	m.observe(d)
	m.chunkNs += float64(d)
	m.chunkTicks += ticks
	if m.chunkNs >= float64(chunkLen) && len(m.yards) >= 3 {
		m.closeChunk(m.chunkTicks, m.chunkNs)
	}
}

// sample adds yardstick samples taken elsewhere (a background sampler).
func (m *meter) sample(ds []float64) { m.yards = append(m.yards, ds...) }

// closeChunk ends the open chunk: it covered `ticks` control intervals in
// wallNs of wall time.
func (m *meter) closeChunk(ticks, wallNs float64) {
	for len(m.yards) < 3 {
		m.yards = append(m.yards, m.yard.sample())
	}
	f := yardRefNs / median(m.yards)
	for _, d := range m.rawOps[m.chunkFrom:] {
		if m.wallOps {
			m.ops = append(m.ops, d)
		} else {
			m.ops = append(m.ops, d*f)
		}
	}
	if wallNs > 0 {
		m.rawRates = append(m.rawRates, ticks/(wallNs/1e9))
		m.rates = append(m.rates, ticks/(wallNs*f/1e9))
	}
	m.factors = append(m.factors, f)
	m.chunkFrom, m.chunkNs, m.chunkTicks, m.yards = len(m.rawOps), 0, 0, m.yards[:0]
}

// finish closes a closed loop's last, partial chunk.
func (m *meter) finish() {
	if len(m.rawOps) > m.chunkFrom {
		m.closeChunk(m.chunkTicks, m.chunkNs)
	}
}

// timeSetup runs a set-up that keeps `cores` CPUs busy and returns how long
// it took, as measured and corrected by yardstick samples taken before,
// during (in the background: a set-up cannot be interleaved) and after it.
func timeSetup(cores int, setup func() error) (raw, corrected time.Duration, err error) {
	y := newYard(cores)
	var ds []float64
	inline := func() {
		for i := 0; i < 9; i++ {
			ds = append(ds, y.sample())
		}
	}
	inline()
	bg := startHostSampler(cores)
	t0 := time.Now()
	err = setup()
	raw = time.Since(t0)
	ds = append(ds, bg.done()...)
	inline()
	return raw, time.Duration(float64(raw) * yardRefNs / median(ds)), err
}

// hostSampler times the yardstick in the background, every 20 ms, while
// something that cannot be interleaved with it runs (a set-up, a suite
// pass that keeps every worker busy). It takes 0.3 % of a CPU per core.
type hostSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	ds   []float64
}

func startHostSampler(cores int) *hostSampler {
	s := &hostSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		y := newYard(cores)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			s.ds = append(s.ds, y.sample())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// done stops the sampler and returns its samples (at least one).
func (s *hostSampler) done() []float64 {
	close(s.stop)
	s.wg.Wait()
	return s.ds
}
