package engine

// Periodic is a fixed-period self-rescheduling callback, the engine-side
// driver for epoch-domain work such as telemetry sampling.  The tick
// closure is bound once at construction and reused on every reschedule,
// so steady-state ticking performs zero allocations.
type Periodic struct {
	e       *Engine
	period  int64
	fn      func(now int64)
	tick    func(now int64)
	stopped bool
}

// SchedulePeriodic arranges for fn to run every period cycles, first
// firing period cycles from now.  The callback auto-stops once it fires
// with no pending work besides other periodics' ticks: Run drains the
// queue to completion, so an unconditional reschedule would keep the
// simulation alive forever — and two periodics deciding on raw queue
// emptiness would sustain each other's ticks in an endless mutual
// livelock.  That trailing tick fires at the frozen clock of the last
// real event (see Run), so fn never observes — and the engine never
// reports — a time past the end of real work; callers that need true
// end-of-run state flush it explicitly after Run returns.
func (e *Engine) SchedulePeriodic(period int64, fn func(now int64)) *Periodic {
	if period <= 0 {
		panic("engine: periodic period must be positive")
	}
	p := &Periodic{e: e, period: period, fn: fn}
	p.tick = p.run
	e.periodicTicks++
	e.ScheduleTimed(e.now+period, p.tick)
	return p
}

// run is the per-epoch tick: steady-state rescheduling reuses the
// once-bound p.tick func value.
//
//redvet:hotpath
func (p *Periodic) run(now int64) {
	// This tick just popped off the queue; it no longer counts toward
	// the queued periodic ticks regardless of what happens below.
	p.e.periodicTicks--
	if p.stopped {
		return
	}
	p.fn(now)
	if p.e.onlyTicks() {
		// Everything still queued is other periodics' ticks: no real
		// work remains, so stop instead of keeping the run alive.
		// The remaining periodics reach this same conclusion as they fire.
		p.stopped = true
		return
	}
	p.e.periodicTicks++
	p.e.ScheduleTimed(now+p.period, p.tick)
}

// Stop cancels future firings.  The already-queued tick still pops but
// returns immediately.
func (p *Periodic) Stop() { p.stopped = true }

// Stopped reports whether the periodic has stopped (explicitly or via
// queue-drain auto-stop).
func (p *Periodic) Stopped() bool { return p.stopped }

// onlyTicks reports whether nothing but Periodic ticks is queued: no
// other event, no armed timer and no outstanding superseded arm (an
// armed timer's own arm is always outstanding).
//
//redvet:hotpath
func (e *Engine) onlyTicks() bool {
	return len(e.events) == e.periodicTicks && !before(e.now, e.cur, e.lastAt, e.lastSeq)
}
