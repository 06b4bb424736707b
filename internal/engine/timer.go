package engine

import (
	"math"
	"math/bits"
)

// Timer is a re-armable wake-up kept outside the event heap, for a
// component that needs at most one pending decision at a time (one per
// DRAM channel).  Re-arming overwrites the timer instead of queueing
// another event, so a superseded wake costs no heap push, pop or
// dispatch.
//
// A Timer reproduces, fire for fire, the formulation it replaces: every
// arm pushes an event, and an event runs the callback only when the
// timer is still armed for the event's own cycle.  Each Arm therefore
// still consumes one sequence number, and the timer remembers the
// (at, seq) of every arm the engine has not yet passed.  When it is
// armed for a cycle that an older, superseded arm also named, it fires
// at the older arm's (at, seq) position — the tie rule, where the old
// formulation's stale event ran the decision first.
type Timer struct {
	e  *Engine
	id int // index into the engine's timers and tpos
	fn func()
	// arms lists the (at, seq) of arms not yet passed, superseded ones
	// included; Arm prunes the passed ones.
	arms []timerArm
}

// timerArm is an (at, seq) position: one arm, or a timer's firing
// position — the armed cycle and the oldest outstanding arm's sequence
// number at that cycle.
type timerArm struct {
	at  int64
	seq uint64
}

// disarmed is the firing position of a timer that is not armed; it
// sorts after every real position, so the earliest-timer scan needs no
// armed test.  A timer therefore cannot be armed for math.MaxInt64.
var disarmed = timerArm{at: math.MaxInt64, seq: math.MaxUint64}

// NewTimer returns a disarmed timer that runs fn each time it fires.
// Create timers once per component: the engine keeps every timer for
// its lifetime.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{e: e, id: len(e.timers), fn: fn}
	e.timers = append(e.timers, t)
	e.tpos = append(e.tpos, disarmed)
	return t
}

// Armed reports whether the timer will fire.
//
//redvet:hotpath
func (t *Timer) Armed() bool { return t.e.tpos[t.id].at != disarmed.at }

// At reports the cycle the timer is armed for; meaningful only while
// Armed.
//
//redvet:hotpath
func (t *Timer) At() int64 { return t.e.tpos[t.id].at }

// Arm (re-)arms the timer to fire at cycle `at`, replacing any earlier
// or later armed time.  Like Schedule it panics on a cycle in the past
// and takes the next sequence number.
//
//redvet:hotpath
func (t *Timer) Arm(at int64) {
	e := t.e
	seq := e.nextSeq(at)
	pos := seq
	now, cur := e.now, e.cur
	arms := t.arms
	n := 0
	for _, a := range arms {
		if !before(now, cur, a.at, a.seq) {
			continue // passed: its event would already have popped
		}
		if a.at == at && a.seq < pos {
			pos = a.seq
		}
		arms[n] = a
		n++
	}
	if n == cap(arms) {
		arms = t.grow(n)
	}
	arms = arms[:n+1]
	arms[n] = timerArm{at: at, seq: seq}
	t.arms = arms
	if at >= e.lastAt {
		e.lastAt, e.lastSeq = at, seq
	}

	p := &e.tpos[t.id]
	if p.at == disarmed.at {
		e.armed++
	}
	p.at, p.seq = at, pos
	switch {
	case e.rescan:
	case e.next == nil || before(at, pos, e.nextPos.at, e.nextPos.seq):
		e.next, e.nextPos = t, timerArm{at, pos}
	case e.next == t:
		e.rescan = true // moved later: another timer may now lead
	}
}

// grow returns the first n outstanding arms in a fresh list of double
// the capacity (4 minimum).
//
//redvet:coldstart — amortized growth up to the most arms one timer ever has outstanding
func (t *Timer) grow(n int) []timerArm {
	grown := make([]timerArm, n, max(4, 2*cap(t.arms)))
	copy(grown, t.arms[:n])
	return grown
}

// nextTimer returns the earliest armed timer by (at, seq), or nil; its
// firing position is cached in nextPos.
//
//redvet:hotpath
func (e *Engine) nextTimer() *Timer {
	if e.rescan {
		e.rescan = false
		e.next = nil
		if e.armed > 0 {
			// (at, seq) as one 128-bit unsigned compare (cycles are
			// never negative), and the borrow turned into a select
			// mask: the scan has no data-dependent branch to mispredict.
			best, at, seq := 0, disarmed.at, disarmed.seq
			for i, p := range e.tpos {
				_, b := bits.Sub64(p.seq, seq, 0)
				_, b = bits.Sub64(uint64(p.at), uint64(at), b)
				m := -b
				best ^= (best ^ i) & int(m)
				at ^= (at ^ p.at) & int64(m)
				seq ^= (seq ^ p.seq) & m
			}
			e.next, e.nextPos = e.timers[best], timerArm{at, seq}
		}
	}
	return e.next
}

// dueTimer returns the earliest armed timer if it fires before the
// heap top, or nil.
//
//redvet:hotpath
func (e *Engine) dueTimer() *Timer {
	t := e.nextTimer()
	if t == nil || (len(e.events) > 0 &&
		!before(e.nextPos.at, e.nextPos.seq, e.events[0].at, e.events[0].seq)) {
		return nil
	}
	return t
}

// fireTimer disarms t, the earliest armed timer, moves the clock to
// its firing position and runs its callback.
//
//redvet:hotpath
func (e *Engine) fireTimer(t *Timer) {
	e.now, e.cur = e.nextPos.at, e.nextPos.seq
	e.tpos[t.id] = disarmed
	e.armed--
	e.rescan = true
	e.Fired++
	t.fn()
}

// stopWithin ends a RunWithin that reached something past deadline.
// Superseded arms at or before the deadline would have fired as stale
// events first, so the clock moves to the latest of them.
func (e *Engine) stopWithin(deadline int64) bool {
	if e.now > deadline {
		return false
	}
	last := e.now
	for _, t := range e.timers {
		for _, a := range t.arms {
			if a.at <= deadline && before(e.now, e.cur, a.at, a.seq) {
				last = max(last, a.at)
			}
		}
	}
	e.now, e.cur = last, e.seq
	return false
}
