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
// loops are written out by hand so the comparator inlines.  On the
// steady-state path (queue capacity warmed up, callbacks created once)
// Schedule followed by Step performs zero allocations — a contract
// pinned by AllocsPerRun guard tests and relied on by every hot path
// in internal/dram, internal/cpu, and internal/hbm.
package engine

// Event is a callback bound to a firing time.  Exactly one of the
// three callback fields is set, matching the scheduling variant used:
// fn (Schedule), fnTimed (ScheduleTimed), or fnArg+arg (ScheduleArg).
// Events are stored by value inside the heap slice.
type Event struct {
	at      int64
	seq     uint64
	fn      func()
	fnTimed func(now int64)
	fnArg   func(arg uint64)
	arg     uint64
}

// Engine is a discrete-event scheduler.  The zero value is ready to use.
type Engine struct {
	now int64
	seq uint64
	// events is a 4-ary min-heap ordered by (at, seq).  4-ary beats
	// binary here: sift-down does 2x fewer levels (and therefore 2x
	// fewer cache-missing element moves) at the cost of up to three
	// extra comparisons per level, which stay within one cache line of
	// 48 B events.
	events []Event
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
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.fnTimed != nil:
		ev.fnTimed(ev.at)
	default:
		ev.fnArg(ev.arg)
	}
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
// sequence number — the prologue shared by every scheduling variant,
// hoisted so Schedule/ScheduleTimed/ScheduleArg stay three trivially
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

// ScheduleArg enqueues fn to run at cycle `at` with a fixed argument.
// Components that wake many sub-units (e.g. one DRAM channel out of
// eight) register a single func once and encode the sub-unit index in
// arg, so the per-wake closure allocation disappears.
//
//redvet:hotpath
func (e *Engine) ScheduleArg(at int64, fn func(arg uint64), arg uint64) {
	e.push(Event{at: at, seq: e.nextSeq(at), fnArg: fn, arg: arg})
}

// After enqueues fn to run delay cycles from now.
//
//redvet:hotpath
func (e *Engine) After(delay int64, fn func()) { e.Schedule(e.now+delay, fn) }

// Pending reports the number of queued events.
//
//redvet:hotpath
func (e *Engine) Pending() int { return len(e.events) }

// Step executes the single earliest event and returns true, or returns
// false when the queue is empty.
//
//redvet:hotpath
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.Fired++
	e.fire(&ev)
	return true
}

// Run executes events until the queue drains (or Limit is hit) and
// returns the final simulation time.  The pop loop is inlined rather
// than delegating to Step, and the Limit check fires *before* an event
// executes, so the panic triggers at exactly Limit fired events (a run
// that completes in exactly Limit events does not panic).
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
	for len(e.events) > 0 {
		if e.Limit != 0 && e.Fired >= e.Limit {
			panic("engine: event limit exceeded (likely a scheduling loop)")
		}
		ev := e.pop()
		if len(e.events) < e.periodicTicks {
			// This pop took a trailing periodic tick (pre-pop the queue
			// held nothing but ticks): fire it at the frozen clock.
			ev.at = e.now
		} else {
			e.now = ev.at
		}
		e.Fired++
		e.fire(&ev)
	}
	return e.now
}

// RunWithin executes events until the queue drains or the earliest
// queued event would fire after deadline, reporting whether the queue
// drained.  Unlike RunUntil the clock is left at the last fired event,
// never forced to the deadline — a run that finishes inside its budget
// is indistinguishable from an unbounded Run, which is what makes a
// generous watchdog budget observationally free.  Limit applies as in
// Run: it is the backstop for same-cycle scheduling loops, which never
// advance past the deadline on their own.
//
//redvet:hotpath
func (e *Engine) RunWithin(deadline int64) bool {
	for len(e.events) > 0 {
		if e.events[0].at > deadline {
			return false
		}
		if e.Limit != 0 && e.Fired >= e.Limit {
			panic("engine: event limit exceeded (likely a scheduling loop)")
		}
		ev := e.pop()
		if len(e.events) < e.periodicTicks {
			// Trailing periodic tick: frozen clock, as in Run.
			ev.at = e.now
		} else {
			e.now = ev.at
		}
		e.Fired++
		e.fire(&ev)
	}
	return true
}

// RunUntil executes events with firing time <= deadline, advancing the
// clock to the deadline if the queue drains earlier.  Like Run, the pop
// loop is inlined: the heap head is read once per iteration instead of
// re-checking emptiness and re-reading it through Step.
//
//redvet:hotpath
func (e *Engine) RunUntil(deadline int64) {
	for len(e.events) > 0 && e.events[0].at <= deadline {
		ev := e.pop()
		e.now = ev.at
		e.Fired++
		e.fire(&ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
}
