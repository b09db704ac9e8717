package harness

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"satori/internal/core"
	"satori/internal/workloads"
)

func TestResolveWorkers(t *testing.T) {
	if got := resolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("resolveWorkers(0) = %d, want GOMAXPROCS", got)
	}
	if got := resolveWorkers(3); got != 3 {
		t.Errorf("resolveWorkers(3) = %d", got)
	}
}

func TestSplitWorkers(t *testing.T) {
	if outer, inner := splitWorkers(8, 2); outer != 2 || inner != 4 {
		t.Errorf("splitWorkers(8, 2) = %d, %d", outer, inner)
	}
	if outer, inner := splitWorkers(1, 5); outer != 1 || inner != 1 {
		t.Errorf("splitWorkers(1, 5) = %d, %d", outer, inner)
	}
	if outer, inner := splitWorkers(4, 16); outer != 4 || inner != 1 {
		t.Errorf("splitWorkers(4, 16) = %d, %d", outer, inner)
	}
	// The budget never multiplies beyond the request.
	outer, inner := splitWorkers(6, 4)
	if outer*inner > 6 || outer < 1 || inner < 1 {
		t.Errorf("splitWorkers(6, 4) = %d, %d oversubscribes", outer, inner)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 50
		var visits [n]atomic.Int32
		if err := forEach(workers, n, func(i int) error {
			visits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := forEach(8, 20, func(i int) error {
		switch i {
		case 3:
			return errB
		case 1:
			return errA
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("got %v, want the lowest-index error", err)
	}
}

// A failing index stops nothing on either path: every index still runs, so
// what fn leaves behind is the same for any worker count, and the error
// returned is the lowest index's.
func TestForEachRunsEveryIndexPastAnError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 10
		var visits [n]atomic.Int32
		err := forEach(workers, n, func(i int) error {
			visits[i].Add(1)
			if i == 2 || i == 7 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom at 2" {
			t.Errorf("workers=%d: got %v, want the error of index 2", workers, err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d visited %d times, want 1", workers, i, got)
			}
		}
	}
	if err := forEach(4, 0, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Errorf("n=0 returned %v", err)
	}
}

func parallelSpec(t *testing.T, workers int) SuiteSpec {
	t.Helper()
	mixes, err := workloads.PaperMixes(workloads.SuitePARSEC)
	if err != nil {
		t.Fatal(err)
	}
	return SuiteSpec{
		Mixes: mixes[:3],
		Policies: []NamedFactory{
			{Name: "satori", Factory: SatoriFactory(core.Options{})},
			{Name: "random", Factory: onSim(random)},
		},
		Base:    DefaultSuiteBase(11, 60),
		Workers: workers,
	}
}

// The tentpole guarantee: any worker count yields byte-identical results.
// This test also races the pool under `go test -race`.
func TestRunSuiteParallelMatchesSerial(t *testing.T) {
	serial, err := RunSuite(parallelSpec(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuite(parallelSpec(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel SuiteResult differs from serial")
	}
	// Rendered output is what the experiment reports print; assert the
	// byte-level guarantee the users of -parallel rely on.
	if s, p := meansTable(serial).String(), meansTable(parallel).String(); s != p {
		t.Fatalf("rendered tables differ:\nserial:\n%s\nparallel:\n%s", s, p)
	}
}

func TestReplicateSuiteParallelMatchesSerial(t *testing.T) {
	seeds := []uint64{5, 6, 7}
	serial, err := ReplicateSuite(parallelSpec(t, 1), seeds)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ReplicateSuite(parallelSpec(t, 4), seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("replicated means differ:\nserial %+v\nparallel %+v", serial, parallel)
	}
}
