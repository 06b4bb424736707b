package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refTimer is the formulation Timer replaces, kept as the test oracle:
// every arm queues its own heap event, and an event runs the callback
// only while the timer is still armed for the event's own cycle.  A
// superseded arm's event stays queued and fires as a no-op — unless a
// later arm names its cycle again, in which case that older event runs
// the callback at its own tie position.
type refTimer struct {
	e     *Engine
	fn    func()
	armed bool
	at    int64
	wake  func()
}

func newRefTimer(e *Engine, fn func()) *refTimer {
	r := &refTimer{e: e, fn: fn}
	r.wake = func() {
		if !r.armed || r.at != r.e.Now() {
			return // superseded
		}
		r.armed = false
		r.fn()
	}
	return r
}

func (r *refTimer) Arm(at int64) {
	r.armed, r.at = true, at
	r.e.Schedule(at, r.wake)
}

func (r *refTimer) Armed() bool { return r.armed }
func (r *refTimer) At() int64   { return r.at }

// wakeTimer is what both formulations offer a component.
type wakeTimer interface {
	Arm(at int64)
	Armed() bool
	At() int64
}

// fireRec is one callback execution: its (at, seq) position and who ran.
type fireRec struct {
	at  int64
	seq uint64
	id  string
}

// timerScript drives one engine through a randomized schedule in which
// every callback draws its follow-up actions from rng: plain events,
// channel-style wakes (re-arm only when earlier, as dram.Controller
// does) and unconditional re-arms, at delays that often land on the
// current cycle or on a cycle some superseded arm already named.
type timerScript struct {
	e      *Engine
	rng    *rand.Rand
	timers []wakeTimer
	log    []fireRec
	budget int
}

func (s *timerScript) record(id string) {
	s.log = append(s.log, fireRec{at: s.e.now, seq: s.e.cur, id: id})
}

func (s *timerScript) act() {
	if s.budget <= 0 {
		return
	}
	s.budget--
	for n := s.rng.Intn(5); n > 0; n-- {
		at := s.e.Now() + int64(s.rng.Intn(9))
		switch k := s.rng.Intn(len(s.timers) + 2); {
		case k == len(s.timers):
			id := fmt.Sprintf("ev%d", len(s.log))
			s.e.Schedule(at, func() { s.record(id); s.act() })
		case k == len(s.timers)+1:
			s.timers[s.rng.Intn(len(s.timers))].Arm(at)
		default:
			if t := s.timers[k]; !t.Armed() || t.At() > at {
				t.Arm(at)
			}
		}
	}
}

// runTimerScript plays the script for seed on a fresh engine using
// either real timers or the reference formulation, under one of three
// drivers (Run; RunWithin then Run; RunUntil steps then Run), and
// returns the fire log plus the clock after each driver step.
func runTimerScript(seed int64, ref bool, driver int, periodic bool) ([]fireRec, []int64) {
	e := New()
	e.Limit = 1 << 17 // a divergence that livelocks fails fast instead
	s := &timerScript{e: e, rng: rand.New(rand.NewSource(seed)), budget: 400}
	for i := 0; i < 1+int(seed%6); i++ {
		id := fmt.Sprintf("t%d", i)
		fn := func() { s.record(id); s.act() }
		if ref {
			s.timers = append(s.timers, newRefTimer(e, fn))
		} else {
			s.timers = append(s.timers, e.NewTimer(fn))
		}
	}
	if periodic {
		e.SchedulePeriodic(7, func(int64) { s.record("tick") })
	}
	e.Schedule(0, func() { s.record("start"); s.act(); s.act() })

	// Between bounded runs the driver acts from outside, as a caller
	// submitting work at the cycle a bounded run stopped on would.
	var clocks []int64
	switch driver {
	case 1:
		deadline := int64(s.rng.Intn(200))
		drained := e.RunWithin(deadline)
		clocks = append(clocks, e.Now(), int64(len(s.log)))
		if drained {
			clocks = append(clocks, -1)
		}
		s.act()
	case 2:
		for d := int64(0); d < 300; d += 37 {
			e.RunUntil(d)
			clocks = append(clocks, e.Now(), int64(len(s.log)))
			s.act()
		}
	}
	clocks = append(clocks, e.Run())
	return s.log, clocks
}

// TestTimerMatchesStaleEventReference compares timers against the
// one-event-per-arm reference over randomized schedules: the fire
// sequence (at, seq, callback) must be identical, and so must the clock
// every driver leaves behind, with and without a Periodic whose
// auto-stop and frozen trailing clock depend on superseded arms still
// counting as queued.
func TestTimerMatchesStaleEventReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		for driver := 0; driver < 3; driver++ {
			periodic := seed%2 == 0
			wantLog, wantClk := runTimerScript(seed, true, driver, periodic)
			gotLog, gotClk := runTimerScript(seed, false, driver, periodic)
			if !reflect.DeepEqual(gotLog, wantLog) {
				n := 0
				for n < len(gotLog) && n < len(wantLog) && gotLog[n] == wantLog[n] {
					n++
				}
				t.Fatalf("seed %d driver %d: fire sequence diverges at #%d (timers %d fires, reference %d):\ngot  %v\nwant %v",
					seed, driver, n, len(gotLog), len(wantLog),
					gotLog[n:min(n+4, len(gotLog))], wantLog[n:min(n+4, len(wantLog))])
			}
			if !reflect.DeepEqual(gotClk, wantClk) {
				t.Fatalf("seed %d driver %d: clocks %v, reference %v", seed, driver, gotClk, wantClk)
			}
		}
	}
}

// TestTimerTieRuleFiresAtSupersededPosition is the named regression for
// the tie rule: a timer re-armed for a cycle that an older, superseded
// arm also named fires at the older arm's (at, seq) position — before
// an event queued in between — exactly as that arm's stale event did
// in the reference.
func TestTimerTieRuleFiresAtSupersededPosition(t *testing.T) {
	for _, ref := range []bool{true, false} {
		e := New()
		var got []string
		note := func(s string) { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) }
		var tm wakeTimer
		if ref {
			tm = newRefTimer(e, func() { note("timer") })
		} else {
			tm = e.NewTimer(func() { note("timer") })
		}
		tm.Arm(10) // seq 1, superseded below
		tm.Arm(5)  // seq 2
		e.Schedule(7, func() {
			e.Schedule(10, func() { note("event") }) // seq 4
			tm.Arm(10)                               // seq 5: ties with seq 1
		})
		e.Run()
		want := []string{"timer@5", "timer@10", "event@10"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reference=%v: fired %v, want %v", ref, got, want)
		}
	}
}

// TestTimerSameCycleRearmFromCallback covers the channel idle-hook
// path: a timer firing at cycle 10 re-arms itself for cycle 10 while
// another arm for 10 is still outstanding, so the second firing takes
// that arm's position — ahead of an event its own callback queued for
// 10 first.
func TestTimerSameCycleRearmFromCallback(t *testing.T) {
	for _, ref := range []bool{true, false} {
		e := New()
		var got []string
		note := func(s string) { got = append(got, fmt.Sprintf("%s@%d", s, e.Now())) }
		var tm wakeTimer
		fires := 0
		fn := func() {
			note("timer")
			if fires++; fires == 2 {
				e.Schedule(10, func() { note("event") }) // seq 5
				tm.Arm(10)                               // seq 6: ties with seq 4
			}
		}
		if ref {
			tm = newRefTimer(e, fn)
		} else {
			tm = e.NewTimer(fn)
		}
		tm.Arm(10)                           // seq 1, superseded below
		tm.Arm(3)                            // seq 2
		e.Schedule(5, func() { tm.Arm(10) }) // seq 3; the arm takes seq 4 and ties with seq 1
		e.Run()
		want := []string{"timer@3", "timer@10", "timer@10", "event@10"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reference=%v: fired %v, want %v", ref, got, want)
		}
	}
}

// TestTimerSupersededArmHoldsClock: a superseded arm past the last real
// work still moves the end-of-run clock, keeps a Periodic ticking and
// keeps a bounded run from reporting a drained queue, as its queued
// stale event did.
func TestTimerSupersededArmHoldsClock(t *testing.T) {
	for _, ref := range []bool{true, false} {
		e := New()
		var tm wakeTimer
		if ref {
			tm = newRefTimer(e, func() {})
		} else {
			tm = e.NewTimer(func() {})
		}
		var ticks []int64
		e.SchedulePeriodic(10, func(now int64) { ticks = append(ticks, now) })
		tm.Arm(45)
		tm.Arm(4)
		if e.RunWithin(38) || e.Now() != 30 {
			t.Fatalf("reference=%v: RunWithin(38) drained at %d, want not drained at 30", ref, e.Now())
		}
		if end := e.Run(); end != 45 {
			t.Fatalf("reference=%v: run ended at %d, want 45", ref, end)
		}
		if want := []int64{10, 20, 30, 40, 45}; !reflect.DeepEqual(ticks, want) {
			t.Fatalf("reference=%v: ticks at %v, want %v", ref, ticks, want)
		}
	}
}

// TestTimerPendingCountsArmedTimers: Pending counts an armed timer once
// however often it was re-armed, and not at all once it fired.
func TestTimerPendingCountsArmedTimers(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() {})
	tm.Arm(9)
	tm.Arm(3)
	tm.Arm(1)
	e.Schedule(2, func() {})
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() = %d, want 2 (one event, one armed timer)", got)
	}
	if !e.Step() || e.Now() != 1 || tm.Armed() {
		t.Fatalf("first step: now %d, armed %v; want the timer fired at 1", e.Now(), tm.Armed())
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after the timer fired, want 1", got)
	}
}
