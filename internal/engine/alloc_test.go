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

// TestScheduleVariantsZeroAlloc pins the timed variant and timer
// re-arming at 0 allocs/op — the whole point of their existence.
func TestScheduleVariantsZeroAlloc(t *testing.T) {
	e := New()
	timed := func(int64) {}
	tm := e.NewTimer(func() {})
	for i := 0; i < 1024; i++ {
		e.ScheduleTimed(int64(i), timed)
		tm.Arm(int64(i))
	}
	e.Run()
	if allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleTimed(e.Now()+1, timed)
		tm.Arm(e.Now() + 1)
		e.Step()
		e.Step()
	}); allocs != 0 {
		t.Fatalf("ScheduleTimed/Timer.Arm+Step allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestTimerRearmZeroAlloc pins a channel-like wake at 0 allocs/op
// once the arm list is warm: a deferred decision arms far out, an
// arrival supersedes it with an earlier arm, and the timer fires.
func TestTimerRearmZeroAlloc(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() {})
	wake := func() {
		now := e.Now()
		tm.Arm(now + 9)
		tm.Arm(now + 2)
		e.Step()
	}
	for i := 0; i < 64; i++ {
		wake()
	}
	if allocs := testing.AllocsPerRun(200, wake); allocs != 0 {
		t.Fatalf("Timer.Arm+fire allocated %.1f allocs/op, want 0", allocs)
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
