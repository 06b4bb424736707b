package engine

import (
	"sort"
	"testing"
	"testing/quick"
)

// TestHeapPopOrderMatchesReferenceSort is the property test backing the
// hand-written 4-ary heap: for any schedule (including same-cycle
// bursts), events pop in exactly (at, seq) order — the order a stable
// sort by firing time produces over the schedule sequence.
func TestHeapPopOrderMatchesReferenceSort(t *testing.T) {
	f := func(delays []uint8) bool {
		e := New()
		var fired []int
		for id, d := range delays {
			id := id
			// d>>5 compresses delays into [0,7] so same-cycle bursts are
			// common, exercising the seq tie-break hard.
			e.Schedule(int64(d>>5), func() { fired = append(fired, id) })
		}
		e.Run()

		want := make([]int, len(delays))
		for i := range want {
			want[i] = i
		}
		// Reference: stable sort by firing time keeps schedule order
		// within a cycle — exactly the (at, seq) contract.
		sort.SliceStable(want, func(i, j int) bool {
			return delays[want[i]]>>5 < delays[want[j]]>>5
		})
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHeapInterleavedScheduleStep drives the heap through an arbitrary
// interleaving of Schedule and Step calls, checking each popped event
// against a reference model (linear scan for the (at, seq) minimum).
func TestHeapInterleavedScheduleStep(t *testing.T) {
	type refEvent struct {
		at  int64
		seq int
		id  int
	}
	f := func(ops []uint8) bool {
		e := New()
		var ref []refEvent
		var fired []int
		seq := 0
		ok := true
		for _, op := range ops {
			if op&3 == 0 && len(ref) > 0 {
				// Reference pop: minimum by (at, seq).
				m := 0
				for i := 1; i < len(ref); i++ {
					if ref[i].at < ref[m].at ||
						(ref[i].at == ref[m].at && ref[i].seq < ref[m].seq) {
						m = i
					}
				}
				want := ref[m]
				ref = append(ref[:m], ref[m+1:]...)
				n := len(fired)
				if !e.Step() || len(fired) != n+1 || fired[n] != want.id {
					ok = false
					break
				}
				if e.Now() != want.at {
					ok = false
					break
				}
			} else {
				id := seq
				at := e.Now() + int64(op>>4)
				e.Schedule(at, func() { fired = append(fired, id) })
				ref = append(ref, refEvent{at: at, seq: seq, id: id})
				seq++
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPopClearsVacatedSlot guards the memory-hygiene detail: the tail
// slot vacated by pop must be zeroed so a completed event's callback
// does not stay reachable through the slice's spare capacity.
func TestPopClearsVacatedSlot(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	e.Step()
	tail := e.events[:2][1] // vacated slot within capacity
	if tail.fn != nil || tail.fnTimed != nil {
		t.Fatal("pop left a stale callback in the vacated heap slot")
	}
}

// TestScheduleVariants checks that ScheduleTimed and timers fire with
// the right values and honor the shared (at, seq) ordering.
func TestScheduleVariants(t *testing.T) {
	e := New()
	var got []int64
	e.ScheduleTimed(7, func(now int64) { got = append(got, now) })
	e.NewTimer(func() { got = append(got, 42) }).Arm(7)
	e.Schedule(7, func() { got = append(got, e.Now()) })
	e.ScheduleTimed(3, func(now int64) { got = append(got, -now) })
	if end := e.Run(); end != 7 {
		t.Fatalf("final time = %d, want 7", end)
	}
	want := []int64{-3, 7, 42, 7}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestScheduleVariantsPastPanics pins the past-scheduling panic on the
// timed variant and on timer arms too.
func TestScheduleVariantsPastPanics(t *testing.T) {
	for name, schedule := range map[string]func(*Engine){
		"ScheduleTimed": func(e *Engine) { e.ScheduleTimed(5, func(int64) {}) },
		"Timer.Arm":     func(e *Engine) { e.NewTimer(func() {}).Arm(5) },
	} {
		e := New()
		e.Schedule(10, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic scheduling in the past", name)
				}
			}()
			schedule(e)
		})
		e.Run()
	}
}

// TestRunPanicsAtExactlyLimit pins the satellite fix: with Limit = N
// and more than N events pending, exactly N events execute before the
// panic; a run of exactly N events completes without panicking.
func TestRunPanicsAtExactlyLimit(t *testing.T) {
	e := New()
	e.Limit = 10
	fired := 0
	var chain func()
	chain = func() { fired++; e.After(1, chain) }
	e.Schedule(0, chain)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on event limit")
			}
		}()
		e.Run()
	}()
	if fired != 10 {
		t.Fatalf("fired %d events before the limit panic, want exactly 10", fired)
	}

	e2 := New()
	e2.Limit = 5
	for i := 0; i < 5; i++ {
		e2.Schedule(int64(i), func() {})
	}
	e2.Run() // exactly Limit events: must not panic
	if e2.Fired != 5 {
		t.Fatalf("Fired = %d, want 5", e2.Fired)
	}
}
