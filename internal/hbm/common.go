package hbm

import (
	"redcache/internal/fault"
	"redcache/internal/mem"
	"redcache/internal/obs"
)

// ctlBase carries the state every real cache controller shares: the
// functional tag store, statistics, victim bookkeeping, and the event
// tracer (nil unless telemetry is wired — Emit on nil is a no-op).
//
//redvet:state
type ctlBase struct {
	d    deps
	s    Stats
	tags *tagStore
	tr   *obs.Tracer
	// inj models tag/r-count/data corruption in the ECC-less TAD layout;
	// nil (the default) keeps every probe a plain tag-store lookup.
	inj *fault.Injector
}

func newCtlBase(d deps) ctlBase {
	return ctlBase{d: d, tags: newTagStore(d.cfg.HBMCacheB, d.cfg.Granularity)}
}

// Stats exposes the controller statistics.
func (c *ctlBase) Stats() *Stats { return &c.s }

// SetFaultInjector installs the fault source (nil disables injection).
// The sim wire-up discovers it via interface assertion, so controllers
// without a TAD tag store (NoHBM, Ideal) simply do not expose it.
func (c *ctlBase) SetFaultInjector(inj *fault.Injector) { c.inj = inj }

// lookupFaulty probes the tag store through the fault model: the tag
// field physically lives in the spare ECC bits, so a probe can read it
// corrupted.  A parity-detected corruption makes the frame's metadata
// untrustworthy — the controller drops the frame (losing dirty data,
// which the injector counts) and reports a conservative miss.  An
// escaped corruption keeps the probe's verdict but is counted as a
// silent fault.  Invalid frames carry no metadata to corrupt.
//
//redvet:hotpath
func (c *ctlBase) lookupFaulty(addr mem.Addr) (e *tagEntry, hit bool) {
	e, hit = c.tags.lookup(addr)
	if c.inj == nil || !e.valid {
		return e, hit
	}
	if c.inj.TagProbe(uint64(addr), e.dirty) == fault.TagDetected {
		*e = tagEntry{}
		return e, false
	}
	return e, hit
}

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
