// Package engine provides a deterministic discrete-event simulation
// kernel used by every timed component in the simulator (cores, cache
// controllers, DRAM channels).
//
// Time is measured in integer CPU cycles.  Events scheduled for the same
// cycle fire in schedule order (a monotonically increasing sequence
// number breaks ties), which makes whole-system runs bit-reproducible.
//
// The event queue is a value-typed 4-ary min-heap over Event structs:
// no per-event heap allocation, no interface boxing, and the sift
// loops are written out by hand so the comparator inlines.  Next to
// the heap sit a few re-armable Timers (one per DRAM channel), whose
// superseded arms never enter the heap; every run loop fires whichever
// of the heap top and the earliest armed timer comes first by
// (at, seq).  On the steady-state path (queue capacity warmed up,
// callbacks created once) Schedule followed by Step performs zero
// allocations — a contract pinned by AllocsPerRun guard tests and
// relied on by every hot path in internal/dram, internal/cpu, and
// internal/hbm.
package engine

// Event is a callback bound to a firing time.  Exactly one of the two
// callback fields is set, matching the scheduling variant used: fn
// (Schedule) or fnTimed (ScheduleTimed).  Events are stored by value
// inside the heap slice.
type Event struct {
	at      int64
	seq     uint64
	fn      func()
	fnTimed func(now int64)
}

// Engine is a discrete-event scheduler.  The zero value is ready to use.
type Engine struct {
	now int64
	seq uint64
	// cur is the seq of the event or timer arm being fired; together
	// with now it marks how far the (at, seq) order has been consumed.
	// Clock jumps (RunUntil, drained runs) set it to seq: everything
	// allocated so far at or before now counts as passed.
	cur uint64
	// events is a 4-ary min-heap ordered by (at, seq).  4-ary beats
	// binary here: sift-down does 2x fewer levels (and therefore 2x
	// fewer cache-missing element moves) at the cost of up to three
	// extra comparisons per level, which stay within two cache lines
	// of 32 B events.
	events []Event
	// timers holds every Timer ever created on this engine and tpos
	// their firing positions (disarmed when not armed), flat so the
	// earliest-timer scan stays in one or two cache lines; armed counts
	// the armed ones.  next caches the earliest armed timer and
	// nextPos its position; both are recomputed lazily when rescan is
	// set.
	timers  []*Timer
	tpos    []timerArm
	armed   int
	next    *Timer
	nextPos timerArm
	rescan  bool
	// lastAt, lastSeq is the latest (at, seq) any Timer.Arm has
	// taken.  While it lies ahead of (now, cur) a superseded arm is
	// still outstanding: its heap event, in the one-event-per-arm
	// formulation timers replace, would still be queued.  Periodic
	// auto-stop and the end-of-run clock honour it, so dropping stale
	// wakes changes no observable time.
	lastAt  int64
	lastSeq uint64
	// Fired counts events executed; useful for run-away detection in tests.
	Fired uint64
	// Limit, when nonzero, aborts Run after this many events.
	Limit uint64
	// periodicTicks counts currently-queued Periodic tick events, so a
	// periodic can tell "only other periodics remain" apart from "real
	// work is still pending" when deciding whether to auto-stop.
	periodicTicks int
}

// New returns an empty engine at cycle 0.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time in cycles.
//
//redvet:hotpath
func (e *Engine) Now() int64 { return e.now }

// before reports whether (at1, seq1) orders before (at2, seq2).  The
// pair is unique per event, so this is a strict total order and every
// correct heap pops the exact same sequence — the determinism contract
// does not depend on heap arity or sift implementation.
//
//redvet:hotpath
func before(at1 int64, seq1 uint64, at2 int64, seq2 uint64) bool {
	return at1 < at2 || (at1 == at2 && seq1 < seq2)
}

// push inserts ev with a hand-written sift-up: the hole index chases up
// the parent chain and ev is stored exactly once.  Growth is split into
// grow so the steady-state body is statically allocation-free.
//
//redvet:hotpath
func (e *Engine) push(ev Event) {
	if len(e.events) == cap(e.events) {
		e.grow()
	}
	h := e.events
	i := len(h)
	h = h[:i+1]
	for i > 0 {
		p := (i - 1) >> 2
		if before(h[p].at, h[p].seq, ev.at, ev.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// grow doubles the heap's capacity (16 minimum).  Amortized over a
// run the queue reaches its high-water mark during warm-up and never
// grows again, which is exactly the contract the AllocsPerRun guards
// measure after warming the engine.
//
//redvet:coldstart — amortized queue growth; reached only until the run's high-water mark
func (e *Engine) grow() {
	h := e.events
	nh := make([]Event, len(h), max(16, 2*cap(h)))
	copy(nh, h)
	e.events = nh
}

// pop removes and returns the minimum event, sifting the last element
// down from the root by hand.  The vacated tail slot is zeroed so stale
// callback values cannot pin memory.
//
//redvet:hotpath
func (e *Engine) pop() Event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = Event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if before(h[j].at, h[j].seq, h[m].at, h[m].seq) {
					m = j
				}
			}
			if !before(h[m].at, h[m].seq, last.at, last.seq) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	e.events = h
	return top
}

// fire invokes ev's callback.
//
//redvet:hotpath
func (e *Engine) fire(ev *Event) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	ev.fnTimed(ev.at)
}

// checkTime panics on scheduling in the past, which would silently
// reorder time.
//
//redvet:hotpath
func (e *Engine) checkTime(at int64) {
	if at < e.now {
		panic("engine: scheduling event in the past")
	}
}

// nextSeq validates the firing time and allocates the tie-break
// sequence number — the prologue shared by Schedule, ScheduleTimed and
// Timer.Arm, hoisted so the two Schedule variants stay trivially
// inlinable wrappers around push.
//
//redvet:hotpath
func (e *Engine) nextSeq(at int64) uint64 {
	e.checkTime(at)
	e.seq++
	return e.seq
}

// Schedule enqueues fn to run at cycle `at`.  For zero-allocation
// steady-state scheduling the callback should be created once (per
// component) and reused; a closure literal at the call site allocates
// on every call.
//
//redvet:hotpath
func (e *Engine) Schedule(at int64, fn func()) {
	e.push(Event{at: at, seq: e.nextSeq(at), fn: fn})
}

// ScheduleTimed enqueues fn to run at cycle `at`, passing the firing
// cycle to the callback.  This is the allocation-free form of the
// common completion pattern `Schedule(at, func() { done(at) })`: the
// existing func value is stored in the event verbatim instead of being
// wrapped in a fresh closure.
//
//redvet:hotpath
func (e *Engine) ScheduleTimed(at int64, fn func(now int64)) {
	e.push(Event{at: at, seq: e.nextSeq(at), fnTimed: fn})
}

// After enqueues fn to run delay cycles from now.
//
//redvet:hotpath
func (e *Engine) After(delay int64, fn func()) { e.Schedule(e.now+delay, fn) }

// Pending reports the number of queued events plus armed timers.
//
//redvet:hotpath
func (e *Engine) Pending() int { return len(e.events) + e.armed }

// popNext removes the heap top and advances the clock to it.  A
// trailing Periodic tick — nothing but ticks queued before this pop,
// no timer armed and no superseded arm outstanding — fires at the
// frozen clock instead; the clock still moves to the last superseded
// arm, whose heap event in the one-event-per-arm formulation would
// have fired (and advanced it) before the tick.
//
//redvet:hotpath
func (e *Engine) popNext() Event {
	ev := e.pop()
	if len(e.events) < e.periodicTicks && !before(ev.at, ev.seq, e.lastAt, e.lastSeq) {
		e.now = max(e.now, e.lastAt)
		e.cur = e.seq
		ev.at = e.now
	} else {
		e.now = ev.at
		e.cur = ev.seq
	}
	return ev
}

// settle moves the clock past every outstanding superseded arm once
// no real work remains, exactly where the drained one-event-per-arm
// queue would have left it.
//
//redvet:hotpath
func (e *Engine) settle() {
	e.now = max(e.now, e.lastAt)
	e.cur = e.seq
}

// checkLimit panics once Limit events have fired.
//
//redvet:hotpath
func (e *Engine) checkLimit() {
	if e.Limit != 0 && e.Fired >= e.Limit {
		panic("engine: event limit exceeded (likely a scheduling loop)")
	}
}

// Step executes the single earliest event or timer and returns true,
// or returns false when nothing is queued or armed.
//
//redvet:hotpath
func (e *Engine) Step() bool {
	if t := e.dueTimer(); t != nil {
		e.fireTimer(t)
		return true
	}
	if len(e.events) == 0 {
		e.settle()
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.cur = ev.seq
	e.Fired++
	e.fire(&ev)
	return true
}

// Run executes events and timers until nothing is queued or armed (or
// Limit is hit) and returns the final simulation time.  The fire loop
// is inlined rather than delegating to Step, and the Limit check fires
// *before* an event executes, so the panic triggers at exactly Limit
// fired events (a run that completes in exactly Limit events does not
// panic).
//
// Once only Periodic ticks remain queued, the clock freezes: each
// trailing tick fires observing the time of the last real event rather
// than dragging the clock up to one partial period past it.  This is
// what makes periodic instrumentation observationally free — the
// engine ends a run at the same cycle with or without periodics, so
// anything the caller does at Now() afterwards (e.g. the writeback
// drain) is unperturbed.
//
//redvet:hotpath
func (e *Engine) Run() int64 {
	for {
		if t := e.dueTimer(); t != nil {
			e.checkLimit()
			e.fireTimer(t)
			continue
		}
		if len(e.events) == 0 {
			break
		}
		e.checkLimit()
		ev := e.popNext()
		e.Fired++
		e.fire(&ev)
	}
	e.settle()
	return e.now
}

// RunWithin executes events and timers until nothing is queued or
// armed, or the earliest one would fire after deadline, reporting
// whether the run drained.  Unlike RunUntil the clock is left at the
// last fired event, never forced to the deadline — a run that finishes
// inside its budget is indistinguishable from an unbounded Run, which
// is what makes a generous watchdog budget observationally free.
// Limit applies as in Run: it is the backstop for same-cycle
// scheduling loops, which never advance past the deadline on their
// own.
//
//redvet:hotpath
func (e *Engine) RunWithin(deadline int64) bool {
	for {
		if t := e.dueTimer(); t != nil {
			if e.nextPos.at > deadline {
				return e.stopWithin(deadline)
			}
			e.checkLimit()
			e.fireTimer(t)
			continue
		}
		if len(e.events) == 0 {
			break
		}
		if e.events[0].at > deadline {
			return e.stopWithin(deadline)
		}
		e.checkLimit()
		ev := e.popNext()
		e.Fired++
		e.fire(&ev)
	}
	if e.lastAt > deadline {
		// A superseded arm past the deadline still counts as queued.
		return e.stopWithin(deadline)
	}
	e.settle()
	return true
}

// RunUntil executes events and timers with firing time <= deadline,
// advancing the clock to the deadline if nothing earlier remains.
// Like Run, the fire loop is inlined.
//
//redvet:hotpath
func (e *Engine) RunUntil(deadline int64) {
	for {
		if t := e.dueTimer(); t != nil {
			if e.nextPos.at > deadline {
				break
			}
			e.fireTimer(t)
			continue
		}
		if len(e.events) == 0 || e.events[0].at > deadline {
			break
		}
		ev := e.pop()
		e.now = ev.at
		e.cur = ev.seq
		e.Fired++
		e.fire(&ev)
	}
	if e.now <= deadline {
		e.now = deadline
		e.cur = e.seq
	}
}
