//go:build !race

package engine

import "testing"

// Zero-allocation guards: these pin the steady-state contract that the
// performance work of this repo is built on.  If a future change makes
// Schedule/Step allocate again, the benchmark numbers in EXPERIMENTS.md
// silently rot — so the contract is a test, not a convention.  (Race
// instrumentation perturbs allocation accounting; the guards are
// compiled out under -race.)

// TestScheduleStepZeroAlloc pins Schedule→Step at 0 allocs/op once the
// heap capacity is warm and the callback is pre-created.
func TestScheduleStepZeroAlloc(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the heap slice past any capacity it will need.
	for i := 0; i < 1024; i++ {
		e.Schedule(int64(i), fn)
	}
	e.Run()
	if allocs := testing.AllocsPerRun(200, func() {
		e.After(1, fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("Schedule+Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestScheduleVariantsZeroAlloc pins the fixed-argument and timed
// variants at 0 allocs/op — the whole point of their existence.
func TestScheduleVariantsZeroAlloc(t *testing.T) {
	e := New()
	timed := func(int64) {}
	arged := func(uint64) {}
	for i := 0; i < 1024; i++ {
		e.ScheduleArg(int64(i), arged, uint64(i))
	}
	e.Run()
	if allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleTimed(e.Now()+1, timed)
		e.ScheduleArg(e.Now()+1, arged, 7)
		e.Step()
		e.Step()
	}); allocs != 0 {
		t.Fatalf("ScheduleTimed/ScheduleArg+Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestRunSteadyStateZeroAlloc pins the inlined Run pop loop at 0
// allocs once warm.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count%64 != 0 {
			e.After(1, chain)
		}
	}
	e.Schedule(0, chain)
	e.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		e.Schedule(e.Now(), chain)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("steady-state Run allocated %.1f allocs/op, want 0", allocs)
	}
}
