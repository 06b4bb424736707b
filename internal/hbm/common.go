package hbm

import (
	"redcache/internal/mem"
	"redcache/internal/obs"
)

// ctlBase carries the state every real cache controller shares: the
// functional tag store, statistics, victim bookkeeping, and the event
// tracer (nil unless telemetry is wired — Emit on nil is a no-op).
type ctlBase struct {
	d    deps
	s    Stats
	tags *tagStore
	tr   *obs.Tracer
}

func newCtlBase(d deps) ctlBase {
	return ctlBase{d: d, tags: newTagStore(d.cfg.HBMCacheB, d.cfg.Granularity)}
}

// Stats exposes the controller statistics.
func (c *ctlBase) Stats() *Stats { return &c.s }

// retire accounts a block leaving HBM (eviction or invalidation): the
// last-access-type statistic (§II-C), the zero-reuse counter used by α
// adaptation, and the dirty writeback to DDR4 when requested.
//
//redvet:hotpath
func (c *ctlBase) retire(e *tagEntry, writebackDirty bool) {
	c.s.LastEvictTotal++
	if e.lastWrite {
		c.s.LastEvictWrite++
	}
	if e.rcount == 0 {
		c.s.Gamma.ZeroReuseEvict++
	}
	if e.dirty && writebackDirty {
		c.s.VictimWB++
		c.d.ddr.Write(c.tags.base(e), c.tags.granularity(), nil)
	}
}

// install points e at addr's frame as a fresh clean resident.  Valid
// victims must have been retired by the caller.
//
//redvet:hotpath
func (c *ctlBase) install(e *tagEntry, addr mem.Addr) {
	_, tag := c.tags.frame(addr)
	e.tag = tag
	e.valid = true
	e.dirty = false
	e.rcount = 0
	e.lastWrite = false
}

// frameBase aligns addr down to its transfer-granularity frame.
//
//redvet:hotpath
func (c *ctlBase) frameBase(addr mem.Addr) mem.Addr {
	return addr &^ mem.Addr(c.tags.granularity()-1)
}
