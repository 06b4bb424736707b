package engine

import "fmt"

// CheckHeap validates the event queue's structural invariants: the
// 4-ary heap order over (at, seq), that no queued event is scheduled
// before the current cycle, and the timers' (checkTimers).  It is the
// engine leg of the opt-in online invariant checker; O(n) over the
// queue and the timers' arms, never called on the steady-state path.
func (e *Engine) CheckHeap() error {
	h := e.events
	if len(h) > 0 && h[0].at < e.now {
		return fmt.Errorf("engine: earliest queued event at cycle %d is in the past (now %d)",
			h[0].at, e.now)
	}
	for i := 1; i < len(h); i++ {
		p := (i - 1) >> 2
		if before(h[i].at, h[i].seq, h[p].at, h[p].seq) {
			return fmt.Errorf("engine: heap order violated at index %d: (%d, %d) sorts before parent %d's (%d, %d)",
				i, h[i].at, h[i].seq, p, h[p].at, h[p].seq)
		}
		if h[i].seq > e.seq {
			return fmt.Errorf("engine: event %d carries sequence %d beyond the allocator's %d",
				i, h[i].seq, e.seq)
		}
	}
	return e.checkTimers()
}

// checkTimers validates the timers: no armed timer in the past, every
// outstanding arm's sequence number within the allocator, each armed
// timer's firing position among its outstanding arms, and the armed
// count.
func (e *Engine) checkTimers() error {
	armed := 0
	for i, t := range e.timers {
		for _, a := range t.arms {
			if a.seq > e.seq {
				return fmt.Errorf("engine: timer %d holds an arm with sequence %d beyond the allocator's %d",
					i, a.seq, e.seq)
			}
		}
		p := e.tpos[i]
		if p == disarmed {
			continue
		}
		armed++
		if p.at < e.now {
			return fmt.Errorf("engine: timer %d is armed for cycle %d, in the past (now %d)", i, p.at, e.now)
		}
		found := false
		for _, a := range t.arms {
			found = found || a == p
		}
		if !found {
			return fmt.Errorf("engine: timer %d fires at (%d, %d), which is none of its outstanding arms",
				i, p.at, p.seq)
		}
	}
	if armed != e.armed {
		return fmt.Errorf("engine: %d timers armed, count says %d", armed, e.armed)
	}
	return nil
}
