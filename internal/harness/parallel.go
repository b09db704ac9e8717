package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Worker-count conventions, shared by every fan-out in the harness:
// 0 (the zero value) means "one worker per available CPU"
// (runtime.GOMAXPROCS(0)), 1 forces the serial path, and any larger
// value is used as given. Parallel and serial execution produce
// byte-identical results: every run unit derives all of its randomness
// from its own RunSpec.Seed, workers only compute, and aggregation
// always iterates mixes, policies, and seeds in declared order — never
// in completion or map order.

// resolveWorkers maps the Workers convention to a concrete pool size.
func resolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// splitWorkers divides a worker budget between an outer fan-out of n
// units and the parallel work each unit performs internally, so nested
// fan-outs (seeds × suite cells) stay bounded near the requested total
// instead of multiplying.
func splitWorkers(workers, n int) (outer, inner int) {
	w := resolveWorkers(workers)
	outer = w
	if n > 0 && n < outer {
		outer = n
	}
	if outer < 1 {
		outer = 1
	}
	inner = w / outer
	if inner < 1 {
		inner = 1
	}
	return outer, inner
}

// ForEach is the exported bounded worker pool, for other subsystems that
// fan out over independent, index-addressed units under the same
// determinism contract (internal/fleet steps its nodes with it).
func ForEach(workers, n int, fn func(i int) error) error {
	return forEach(workers, n, fn)
}

// forEach runs fn(i) for every i in [0, n) on a bounded pool of workers
// and returns the lowest-index error. Every index runs on both paths, so
// the state fn leaves behind does not depend on the worker count. Each fn
// must write its output into caller-owned, index-addressed storage;
// forEach imposes no result ordering of its own, so aggregation order never
// depends on goroutine scheduling. workers follows the package convention
// (0 = all CPUs, 1 = serial).
func forEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	// The lowest failing index is taken under the lock, which only a
	// failure touches.
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstAt = n
		first   error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstAt {
						firstAt, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
