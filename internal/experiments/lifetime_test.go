package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// traceWatch replaces generate for one test: it counts the traces made
// per workload and, through finalizers, how many are still reachable.
type traceWatch struct {
	mu       sync.Mutex
	made     map[string]int
	live     int
	maxLive  int // most traces reachable when a new one was made, itself included
	liveWant int // waitLive's target while generating
}

func watchTraces(t *testing.T, liveBound int) *traceWatch {
	w := &traceWatch{made: make(map[string]int), liveWant: liveBound - 1}
	prev := generate
	generate = func(spec workloads.Spec, cores int, sc workloads.Scale, seed int64) *trace.Trace {
		// Let the garbage collector reclaim what the Suite has dropped
		// before counting what it still holds.
		before := w.waitLive(w.liveWant)
		tr := prev(spec, cores, sc, seed)
		runtime.SetFinalizer(tr, func(*trace.Trace) {
			w.mu.Lock()
			w.live--
			w.mu.Unlock()
		})
		w.mu.Lock()
		w.made[spec.Label]++
		w.live++
		w.maxLive = max(w.maxLive, before+1)
		w.mu.Unlock()
		return tr
	}
	t.Cleanup(func() { generate = prev })
	return w
}

func (w *traceWatch) liveNow() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.live
}

// waitLive collects garbage until at most n watched traces are
// reachable or the finalizers have had ample chance to run, and
// returns the count it ends at.
func (w *traceWatch) waitLive(n int) int {
	live := w.liveNow()
	for i := 0; i < 200 && live > n; i++ {
		runtime.GC()
		runtime.Gosched()
		live = w.liveNow()
	}
	return live
}

// takeMade returns the per-workload generation counts so far and
// resets them.
func (w *traceWatch) takeMade() map[string]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := w.made
	w.made = make(map[string]int)
	return m
}

func wantMadeOnce(t *testing.T, what string, made map[string]int, labels []string) {
	t.Helper()
	for _, l := range labels {
		if made[l] != 1 {
			t.Errorf("%s: %s trace generated %d times, want 1", what, l, made[l])
		}
	}
	if len(made) != len(labels) {
		t.Errorf("%s: generated traces for %v, want %v", what, made, labels)
	}
}

// TestBatchTraceLifetime pins the Suite's memory contract: a batch
// generates each workload's trace once, holds at most Parallel+1 at a
// time when its runs are workload-major, keeps none afterwards, and a
// batch whose runs are all memoized generates nothing.
func TestBatchTraceLifetime(t *testing.T) {
	s := NewSuite(workloads.Tiny)
	s.Sys.CPU.Cores = 4
	s.Workloads = []string{"LU", "HIST", "IS", "RDX"}
	s.Parallel = 2
	w := watchTraces(t, s.Parallel+1)

	if _, err := s.Fig9(); err != nil {
		t.Fatal(err)
	}
	wantMadeOnce(t, "Fig 9", w.takeMade(), s.Workloads)
	if live := w.waitLive(0); live != 0 {
		t.Errorf("after Fig 9, %d traces are still reachable, want 0", live)
	}
	if w.maxLive > s.Parallel+1 {
		t.Errorf("Fig 9 held %d traces at once, want at most Parallel+1 = %d", w.maxLive, s.Parallel+1)
	}

	// Fig 10 reuses every Fig 9 result; Fig 2a adds No-HBM and Ideal.
	if _, err := s.Fig10(); err != nil {
		t.Fatal(err)
	}
	if made := w.takeMade(); len(made) != 0 {
		t.Errorf("Fig 10 over memoized results generated %v, want nothing", made)
	}
	if _, err := s.Fig2a(); err != nil {
		t.Fatal(err)
	}
	wantMadeOnce(t, "Fig 2a", w.takeMade(), s.Workloads)

	// The ablation batch is workload-major too: one trace per workload
	// for all of its variants.
	if _, err := s.AblationRCUSize(); err != nil {
		t.Fatal(err)
	}
	wantMadeOnce(t, "RCU ablation", w.takeMade(), s.Workloads)
	if live := w.waitLive(0); live != 0 {
		t.Errorf("after the ablation, %d traces are still reachable, want 0", live)
	}
	if w.maxLive > s.Parallel+1 {
		t.Errorf("a batch held %d traces at once, want at most Parallel+1 = %d", w.maxLive, s.Parallel+1)
	}
}

// TestForEachOrderAndBound checks the worker pool's contract: one
// worker calls the indices in order; k workers never run more than k
// calls at once, run every index exactly once, and report the error
// of the lowest failing index.  Run it under -race -count=10.
func TestForEachOrderAndBound(t *testing.T) {
	const n = 40
	s := &Suite{Parallel: 1}
	var order []int
	if err := s.forEach(n, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("Parallel=1 call %d was index %d, want in-order calls; got %v", i, got, order)
		}
	}
	if len(order) != n {
		t.Fatalf("Parallel=1 made %d calls, want %d", len(order), n)
	}

	for _, k := range []int{2, 3, 8, 64} {
		s := &Suite{Parallel: k}
		var mu sync.Mutex
		calls := make([]int, n)
		inFlight, peak := 0, 0
		failing := []int{31, 7, 19}
		err := s.forEach(n, func(i int) error {
			mu.Lock()
			calls[i]++
			inFlight++
			peak = max(peak, inFlight)
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			inFlight--
			mu.Unlock()
			if slices.Contains(failing, i) {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 7 failed" {
			t.Errorf("Parallel=%d: error %v, want the lowest failing index's (7)", k, err)
		}
		if peak > k {
			t.Errorf("Parallel=%d: %d calls in flight at once", k, peak)
		}
		for i, c := range calls {
			if c != 1 {
				t.Errorf("Parallel=%d: index %d called %d times, want 1", k, i, c)
			}
		}
	}

	if err := (&Suite{Parallel: 4}).forEach(0, func(int) error { return errors.New("called") }); err != nil {
		t.Errorf("forEach over no indices: %v", err)
	}
}
