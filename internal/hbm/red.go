package hbm

import (
	"redcache/internal/mem"
	"redcache/internal/obs"
)

// redFlags select which of the proposed mechanisms a RedCache variant
// enables, matching the six configurations of §IV-A.
type redFlags struct {
	alpha         bool // α admission / bypass counting
	gamma         bool // γ last-write invalidation with r-counts
	rcu           bool // deferred r-count updates through the RCU manager
	insitu        bool // r-count updates processed inside the DRAM dies
	refreshBypass bool // route guaranteed misses around refreshing banks
}

// rcuHitLatency is the SRAM access latency, in CPU cycles, of serving a
// demand read out of the RCU RAM block cache.
const rcuHitLatency = 8

// regretCap bounds the invalidation-regret tracker (a small SRAM in
// hardware terms: 4096 block addresses).
const regretCap = 4096

// red implements the RedCache controller family over the direct-mapped
// TAD organization (Fig 7 flow).
//
//redvet:state
type red struct {
	ctlBase
	f     redFlags
	at    *alphaTable
	rcu   *rcuManager
	gamma int
	// gammaDown counts below-γ observations so γ descends eight times
	// slower than it ascends (see updateGamma).
	gammaDown int
	// regret tracks recently gamma-invalidated blocks; a demand miss to
	// one means the "last write" call was premature and γ rises.
	regret     map[mem.Addr]struct{}
	regretRing []mem.Addr
	regretHead int
	ops        *opPool
}

func newRed(d deps, f redFlags) *red {
	c := &red{ctlBase: newCtlBase(d), f: f, gamma: d.cfg.Red.GammaInit,
		regret: make(map[mem.Addr]struct{})}
	c.ops = newOpPool(c.fireOp)
	if f.alpha {
		// α-count buffer misses ride the page walk the TLB miss performs
		// anyway (§III-A-1's "virtually free ride"), so they cost buffer
		// energy but no extra DDR4 traffic; the walk itself is outside
		// the modeled memory stream for every architecture alike.
		c.at = newAlphaTable(d.cfg.Red, nil)
	}
	if f.rcu {
		c.rcu = newRCUManager(d.hbm, d.cfg.Red.RCUEntries, &c.s.RCU,
			func(addr mem.Addr, count uint8) {
				if e, hit := c.tags.lookup(addr); hit {
					e.rcount = count
				}
			})
		d.hbm.SetWriteHook(c.rcu.onWrite)
		d.hbm.SetIdleHook(c.rcu.onIdle)
	}
	return c
}

func (c *red) Name() Arch {
	switch {
	case c.f.rcu:
		return ArchRedCache
	case c.f.alpha && c.f.gamma && c.f.insitu:
		return ArchRedInSitu
	case c.f.alpha && c.f.gamma:
		return ArchRedBasic
	case c.f.alpha:
		return ArchRedAlpha
	default:
		return ArchRedGamma
	}
}

func (c *red) Drain() {
	if c.rcu != nil {
		c.rcu.drain()
	}
	c.s.Alpha.FinalAlpha = c.currentAlpha()
	c.s.Gamma.FinalGamma = c.gamma
}

//redvet:hotpath
func (c *red) currentAlpha() int {
	if c.at == nil {
		return 0
	}
	return c.at.Alpha()
}

// Gamma reports the current γ threshold (tests and examples).
func (c *red) Gamma() int { return c.gamma }

// updateGamma moves γ linearly toward the observed r-count (§III-A-2).
// The descent is deliberately eight times slower than the ascent: γ
// stands in for the *expected lifetime* of a block, so it should settle
// near the upper range of observed reuse counts — invalidating at the
// median lifetime would cut half of all blocks off mid-life and turn
// their next access into a miss.
//
//redvet:hotpath
func (c *red) updateGamma(rcount uint8) {
	r := int(rcount)
	old := c.gamma
	switch {
	case r > c.gamma && c.gamma < c.d.cfg.Red.GammaMax:
		c.gamma++
		c.gammaDown = 0
	case r < c.gamma && c.gamma > c.d.cfg.Red.GammaMin:
		c.gammaDown++
		if c.gammaDown >= 8 {
			c.gamma--
			c.gammaDown = 0
		}
	}
	if c.gamma != old {
		c.tr.Emit(obs.EvGammaMove, 0, int64(old), int64(c.gamma))
	}
}

// noteInvalidation records an invalidated block for regret tracking.
func (c *red) noteInvalidation(addr mem.Addr) {
	addr = addr.Align()
	if len(c.regretRing) < regretCap {
		c.regretRing = append(c.regretRing, addr)
	} else {
		delete(c.regret, c.regretRing[c.regretHead])
		c.regretRing[c.regretHead] = addr
		c.regretHead = (c.regretHead + 1) % regretCap
	}
	c.regret[addr] = struct{}{}
}

// checkRegret raises γ when a demand miss lands on a block that gamma
// invalidated: the invalidation evidently fired before the true last
// write, so the expected-lifetime estimate was too short.
func (c *red) checkRegret(addr mem.Addr) {
	addr = addr.Align()
	if _, ok := c.regret[addr]; !ok {
		return
	}
	delete(c.regret, addr)
	if c.gamma+2 <= c.d.cfg.Red.GammaMax {
		c.tr.Emit(obs.EvGammaMove, uint64(addr), int64(c.gamma), int64(c.gamma+2))
		c.gamma += 2
	}
}

// visibleCount returns the freshest r-count the controller can see for a
// resident block: the RCU CAM if an update is pending, else the value
// the TAD probe returned (which may be stale when updates were dropped).
//
//redvet:hotpath
func (c *red) visibleCount(e *tagEntry, addr mem.Addr) uint8 {
	if c.f.rcu {
		if cnt, ok := c.rcu.lookup(addr); ok {
			return cnt
		}
	}
	return e.rcount
}

// visibleCountFaulty is visibleCount through the fault model: a count
// held in the RCU CAM is an SRAM copy and stays intact, but one read
// out of the TAD's spare ECC bits can come back corrupted, in which
// case it is clamped to zero (perturbing γ adaptation, never crashing).
//
//redvet:hotpath
func (c *red) visibleCountFaulty(e *tagEntry, addr mem.Addr) uint8 {
	if c.f.rcu {
		if cnt, ok := c.rcu.lookup(addr); ok {
			return cnt
		}
	}
	return c.inj.ReadRCount(uint64(addr), e.rcount)
}

func (c *red) Submit(req *mem.Request) {
	isWrite := req.Type == mem.Write
	if isWrite {
		c.s.Writes++
	} else {
		c.s.Reads++
	}

	// Alpha counting (Fig 7, left): pages below the admission threshold
	// bypass the HBM cache entirely.
	if c.f.alpha {
		admitted := c.at.observe(req.Addr.Page(), &c.s)
		c.at.maybeAdapt(&c.s, adaptSignals{
			now:     c.d.eng.Now(),
			hbmBusy: c.d.hbm.Interface().BusyCycles,
			ddrBusy: c.d.ddr.Interface().BusyCycles,
		})
		if !admitted {
			c.s.Alpha.Bypassed++
			c.tr.Emit(obs.EvBypass, uint64(req.Addr), int64(c.at.Alpha()), 0)
			c.direct(req)
			return
		}
	}

	// Refresh bypass: a request that is guaranteed to miss need not wait
	// for a refreshing HBM channel; DDR4 has the only copy anyway.  The
	// diversion only pays off while DDR4 has slack — redirecting a burst
	// into a loaded off-chip channel queues longer than tRFC.
	if c.f.refreshBypass && c.d.hbm.Refreshing(req.Addr) &&
		c.d.ddr.QueueLen(req.Addr) < 4 && !c.tags.present(req.Addr) {
		c.s.RefreshByp++
		c.direct(req)
		return
	}

	// RCU RAM doubles as a tiny block cache for recently read blocks.
	if c.f.rcu {
		c.s.SRAMAccess++ // CAM search on every request
		if !isWrite {
			if cnt, ok := c.rcu.lookup(req.Addr); ok {
				if e, hit := c.tags.lookup(req.Addr); hit && c.f.gamma {
					fresh := satInc(cnt)
					c.rcu.put(req.Addr, fresh)
					c.updateGamma(fresh)
					e.lastWrite = false
				}
				c.s.RCU.BlockHits++
				c.s.Demand.Hits++
				finish := c.d.eng.Now() + rcuHitLatency
				if done := req.TakeDone(); done != nil {
					c.d.eng.ScheduleTimed(finish, done)
				}
				return
			}
		}
	}

	if isWrite {
		c.handleWrite(req)
	} else {
		c.handleRead(req)
	}
}

// direct routes a request straight to DDR4.
func (c *red) direct(req *mem.Request) {
	c.s.DirectToMem++
	if req.Type == mem.Write {
		c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	c.d.ddr.Read(req.Addr, mem.BlockSize, req.TakeDone())
}

// persistRCount pays whatever the variant charges for keeping the fresh
// r-count after a read hit.
func (c *red) persistRCount(e *tagEntry, addr mem.Addr, fresh uint8) {
	c.s.Gamma.RCountUpdates++
	switch {
	case c.f.insitu:
		// Processed by logic in the DRAM die: no bus traffic, extra
		// per-update energy accounted by internal/energy.
		e.rcount = fresh
		c.s.InSitu++
	case c.f.rcu:
		// Deferred: the CAM holds the fresh value; DRAM stays stale
		// until a flush condition persists it (or it ages out).
		c.rcu.put(addr, fresh)
	default:
		// Red-Basic: every read hit issues its own masked write into the
		// tag+ECC bytes.  Without the RCU there is no dedup, merging or
		// same-row piggybacking, so each update costs a full column-
		// command slot plus its share of bus turnarounds.
		e.rcount = fresh
		c.d.hbm.Write(addr.Align(), rcUpdateBytes, nil)
	}
}

func (c *red) handleRead(req *mem.Request) {
	e, hit := c.lookupFaulty(req.Addr)
	c.s.TagProbes++
	g := c.tags.granularity()
	if hit {
		c.s.Demand.Hits++
		c.d.hbm.Read(req.Addr, mem.BlockSize, req.TakeDone())
		c.inj.DataRead(uint64(req.Addr)) // served from the no-ECC data region
		if c.f.gamma {
			fresh := satInc(c.visibleCountFaulty(e, req.Addr))
			e.lastWrite = false
			c.updateGamma(fresh)
			c.persistRCount(e, req.Addr, fresh)
		} else {
			e.lastWrite = false
		}
		return
	}
	c.s.Demand.Misses++
	if c.f.gamma {
		c.checkRegret(req.Addr)
	}
	c.d.hbm.Read(req.Addr, mem.BlockSize, nil) // TAD probe (returns victim)
	if c.keepDirtyVictim(e) {
		// Dirty-victim fill elimination (§IV-D): the resident is young
		// and likely mid-life, so serve the newcomer from DDR4 and skip
		// the writeback + install round trip.
		c.s.FillBypass++
		c.d.ddr.Read(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	base := c.frameBase(req.Addr.Align())
	c.d.ddr.Read(base, g, c.ops.get(opRedReadFill, req.Addr, base, false, req))
}

// fireOp dispatches a pooled miss continuation (see op.go).
func (c *red) fireOp(o *op, f int64) {
	switch o.kind {
	case opRedReadFill:
		c.finishReadFill(o.req, o.addr, o.base, f)
	case opRedWriteInstall:
		c.installWrite(o.req, o.addr, o.base)
	}
}

// finishReadFill completes a read-miss fill after the DDR4 data
// arrives.  The tag entry is positional (direct-mapped store, never
// reallocated), so it is recomputed from the address.
func (c *red) finishReadFill(req *mem.Request, addr, base mem.Addr, f int64) {
	req.Complete(f)
	c.s.Fills++
	e, _ := c.tags.lookup(addr)
	if e.valid {
		c.dropFromRCU(e, c.tags.base(e))
		c.retire(e, true) // dirty victims write back; clean replace silently
	}
	c.install(e, addr)
	c.d.hbm.Write(base, c.tags.granularity(), nil)
}

// keepDirtyVictim decides whether a miss should leave a dirty resident
// in place instead of evicting it for the newcomer (§IV-D).  The paper's
// block taxonomy (Fig 4) marks high-count X-type blocks as the first
// eviction candidates, so the resident is kept only while its reuse
// count says it is still mid-life (below γ); without gamma counting
// there is no lifetime evidence and the controller evicts like Alloy.
func (c *red) keepDirtyVictim(e *tagEntry) bool {
	if !e.valid || !e.dirty || !c.f.gamma {
		return false
	}
	return int(c.visibleCount(e, c.tags.base(e))) < c.gamma
}

func (c *red) handleWrite(req *mem.Request) {
	e, hit := c.lookupFaulty(req.Addr)
	c.s.TagProbes++
	c.d.hbm.Read(req.Addr, mem.BlockSize, nil) // probe
	if hit {
		c.s.Demand.Hits++
		vis := c.inj.ReadRCount(uint64(req.Addr), e.rcount)
		if c.f.rcu {
			// The demand write persists any pending count for free.
			if cnt, ok := c.rcu.dropBlock(req.Addr); ok {
				vis = cnt
			}
		}
		if c.f.gamma {
			fresh := satInc(vis)
			e.rcount = fresh // the write rewrites the whole TAD anyway
			c.updateGamma(fresh)
			if int(fresh) > c.gamma {
				// Last-write invalidation (Fig 7 right): the block's
				// lifetime is over; route the write to main memory and
				// free the frame without touching HBM again.
				c.s.Gamma.Invalidations++
				c.tr.Emit(obs.EvInvalidate, uint64(req.Addr.Align()), int64(fresh), int64(c.gamma))
				e.lastWrite = true
				c.retire(e, false) // data goes to DDR4 below, no victim WB
				e.valid = false
				c.noteInvalidation(req.Addr)
				c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
				return
			}
		}
		e.dirty = true
		e.lastWrite = true
		c.d.hbm.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	c.s.Demand.Misses++
	if c.f.gamma {
		c.checkRegret(req.Addr)
	}
	if c.keepDirtyVictim(e) {
		// §IV-D: keep the young dirty victim, send the writeback to DDR4.
		c.s.FillBypass++
		c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	// Write-allocate, evicting any old resident.
	g := c.tags.granularity()
	base := c.frameBase(req.Addr.Align())
	if g > mem.BlockSize {
		c.d.ddr.Read(base, g, c.ops.get(opRedWriteInstall, req.Addr, base, false, req))
	} else {
		c.installWrite(req, req.Addr, base)
	}
}

// installWrite write-allocates addr's frame, evicting any old resident,
// once any coarse-granularity remainder has arrived from DDR4.
func (c *red) installWrite(req *mem.Request, addr, base mem.Addr) {
	c.s.Fills++
	e, _ := c.tags.lookup(addr)
	if e.valid {
		c.dropFromRCU(e, c.tags.base(e))
		c.retire(e, true)
	}
	c.install(e, addr)
	e.dirty = true
	e.lastWrite = true
	c.d.hbm.Write(base, c.tags.granularity(), req.TakeDone())
}

// dropFromRCU removes any pending update for a departing frame so it
// cannot clobber the new resident's TAD, and folds the fresh count into
// the tag entry so eviction statistics (and through them the α
// adaptation) see the block's true reuse rather than a stale zero.
func (c *red) dropFromRCU(e *tagEntry, addr mem.Addr) {
	if c.rcu == nil {
		return
	}
	if cnt, ok := c.rcu.dropBlock(addr); ok {
		e.rcount = cnt
	}
}
