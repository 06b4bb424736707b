package hbm

import (
	"redcache/internal/mem"
	"redcache/internal/obs"
)

// tadFlags select the mechanisms an architecture adds to the baseline
// TAD flow.  With every flag off the controller is the Alloy Cache.
type tadFlags struct {
	alpha         bool // α admission / bypass counting
	gamma         bool // γ last-write invalidation with r-counts
	rcu           bool // deferred r-count updates through the RCU manager
	insitu        bool // r-count updates processed inside the DRAM dies
	refreshBypass bool // route guaranteed misses around refreshing banks
	bab           bool // Bear's bandwidth-aware fill bypass (bab.go)
	// presence is Bear's DRAM-Cache-Presence filter: writebacks learn
	// residency without the HBM probe read, and absent ones go straight
	// to DDR4 without allocating.  It is exact in simulation (the
	// functional tag store is available); real BEAR tracks presence bits
	// alongside L3 lines with small error.  Read misses still pay the
	// TAD probe, which doubles as the data fetch on a hit.
	presence bool
}

// rcuHitLatency is the SRAM access latency, in CPU cycles, of serving a
// demand read out of the RCU RAM block cache.
const rcuHitLatency = 8

// regretCap bounds the invalidation-regret tracker (a small SRAM in
// hardware terms: 4096 block addresses).
const regretCap = 4096

// tad is the direct-mapped tag-and-data (TAD) DRAM-cache controller of
// every architecture with a tag store: the Alloy (Qureshi & Loh,
// MICRO'12) and BEAR (Chou, Jaleel, Qureshi, ISCA'15) baselines and the
// five RedCache variants of §IV-A.  Tags ride in spare ECC bits, so one
// block-sized HBM access both checks the tag and returns the data.  The
// flow with every flag off, per the RedCache paper's Fig 7 premise:
//
//	read  hit : 1 HBM read (TAD)                          -> data to L3
//	read  miss: 1 HBM read + DDR4 fetch + HBM fill write;
//	            dirty victims travel to DDR4 (their data arrived with
//	            the TAD probe, so no extra HBM read is needed)
//	write hit : 1 HBM read (probe) + 1 HBM write (turnaround)
//	write miss: 1 HBM read + write-allocate (+ dirty victim to DDR4)
//
// The transfer granularity between DDR4 and HBM follows cfg.Granularity
// (64/128/256 B, swept by Fig 2b); demand traffic to the CPU stays 64 B.
// Every hit/miss decision comes from the functional tag store at Submit.
type tad struct {
	d    deps
	arch Arch
	f    tadFlags
	s    Stats
	tags *tagStore
	// tr is the event tracer (nil unless telemetry is wired — Emit on
	// nil is a no-op).
	tr  *obs.Tracer
	at  *alphaTable
	rcu *rcuManager
	bab *babMonitor
	// gamma is the γ threshold; it stays at GammaInit without f.gamma.
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

func newTAD(d deps, arch Arch, f tadFlags) *tad {
	c := &tad{d: d, arch: arch, f: f,
		tags:   newTagStore(d.cfg.HBMCacheB, d.cfg.Granularity),
		gamma:  d.cfg.Red.GammaInit,
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
	if f.bab {
		c.bab = newBABMonitor(d.cfg.Seed)
	}
	return c
}

func (c *tad) Name() Arch    { return c.arch }
func (c *tad) Stats() *Stats { return &c.s }

// baseline reports an architecture with neither α nor γ (Alloy, Bear).
// Only there do hits bump the r-count outside γ, for the zero-reuse
// eviction statistic; Red-Alpha keeps every r-count at 0.
func (c *tad) baseline() bool { return !c.f.alpha && !c.f.gamma }

func (c *tad) Drain() {
	if c.rcu != nil {
		c.rcu.drain()
	}
	if c.baseline() {
		return // no adaptive threshold to report
	}
	c.s.Alpha.FinalAlpha = c.currentAlpha()
	c.s.Gamma.FinalGamma = c.gamma
}

//redvet:hotpath
func (c *tad) currentAlpha() int {
	if c.at == nil {
		return 0
	}
	return c.at.Alpha()
}

// Gamma reports the current γ threshold (tests and examples).
func (c *tad) Gamma() int { return c.gamma }

// updateGamma moves γ linearly toward the observed r-count (§III-A-2).
// The descent is deliberately eight times slower than the ascent: γ
// stands in for the *expected lifetime* of a block, so it should settle
// near the upper range of observed reuse counts — invalidating at the
// median lifetime would cut half of all blocks off mid-life and turn
// their next access into a miss.
//
//redvet:hotpath
func (c *tad) updateGamma(rcount uint8) {
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
func (c *tad) noteInvalidation(addr mem.Addr) {
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
func (c *tad) checkRegret(addr mem.Addr) {
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
func (c *tad) visibleCount(e *tagEntry, addr mem.Addr) uint8 {
	if c.f.rcu {
		if cnt, ok := c.rcu.lookup(addr); ok {
			return cnt
		}
	}
	return e.rcount
}

func (c *tad) Submit(req *mem.Request) {
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
func (c *tad) direct(req *mem.Request) {
	c.s.DirectToMem++
	if req.Type == mem.Write {
		c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	c.d.ddr.Read(req.Addr, mem.BlockSize, req.TakeDone())
}

// persistRCount pays whatever the variant charges for keeping the fresh
// r-count after a read hit.
func (c *tad) persistRCount(e *tagEntry, addr mem.Addr, fresh uint8) {
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

func (c *tad) handleRead(req *mem.Request) {
	e, hit := c.tags.lookup(req.Addr)
	c.s.TagProbes++
	if c.bab != nil {
		c.bab.observe(hit)
	}
	if hit {
		c.s.Demand.Hits++
		c.d.hbm.Read(req.Addr, mem.BlockSize, req.TakeDone())
		e.lastWrite = false
		switch {
		case c.f.gamma:
			fresh := satInc(c.visibleCount(e, req.Addr))
			c.updateGamma(fresh)
			c.persistRCount(e, req.Addr, fresh)
		case c.baseline():
			e.rcount = satInc(e.rcount)
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
	// BAB draws its verdict now; it travels with the op to the fill.
	fill := c.bab == nil || c.bab.shouldFill(c.d.eng.Now(), c.d.hbm.Interface().BusyCycles)
	base := c.frameBase(req.Addr.Align())
	c.d.ddr.Read(base, c.tags.granularity(), c.ops.get(opReadFill, req.Addr, base, fill, req.TakeDone()))
}

// fireOp dispatches a pooled miss continuation (see op.go).
func (c *tad) fireOp(o *op, f int64) {
	switch o.kind {
	case opReadFill:
		c.finishReadFill(o.done, o.addr, o.base, o.fill, f)
	case opWriteInstall:
		c.installWrite(o.done, o.addr, o.base)
	}
}

// finishReadFill completes a read miss after the DDR4 data arrives,
// installing it unless BAB bypassed the fill.  The tag entry is
// positional (direct-mapped store, never reallocated), so it is
// recomputed from the address.
func (c *tad) finishReadFill(done func(int64), addr, base mem.Addr, fill bool, f int64) {
	if done != nil {
		done(f)
	}
	if !fill {
		c.s.FillBypass++
		return
	}
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
func (c *tad) keepDirtyVictim(e *tagEntry) bool {
	if !e.valid || !e.dirty || !c.f.gamma {
		return false
	}
	return int(c.visibleCount(e, c.tags.base(e))) < c.gamma
}

func (c *tad) handleWrite(req *mem.Request) {
	e, hit := c.tags.lookup(req.Addr)
	if c.f.presence {
		c.s.SRAMAccess++ // presence-filter lookup
	} else {
		c.s.TagProbes++
		c.d.hbm.Read(req.Addr, mem.BlockSize, nil) // probe
	}
	if hit {
		c.s.Demand.Hits++
		switch {
		case c.f.gamma:
			vis := e.rcount
			if c.f.rcu {
				// The demand write persists any pending count for free.
				if cnt, ok := c.rcu.dropBlock(req.Addr); ok {
					vis = cnt
				}
			}
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
		case c.baseline():
			e.rcount = satInc(e.rcount)
		}
		e.dirty = true
		e.lastWrite = true
		c.d.hbm.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	c.s.Demand.Misses++
	if c.f.presence {
		// Writeback-probe elimination: the absent block goes straight
		// to DDR4 (BEAR does not write-allocate bypassed lines).
		c.direct(req)
		return
	}
	if c.f.gamma {
		c.checkRegret(req.Addr)
	}
	if c.keepDirtyVictim(e) {
		// §IV-D: keep the young dirty victim, send the writeback to DDR4.
		c.s.FillBypass++
		c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	// Write-allocate: a 64 B L3 writeback covers a whole 64 B frame; for
	// coarser granularity the remainder is fetched from DDR4 first.
	g := c.tags.granularity()
	base := c.frameBase(req.Addr.Align())
	if g > mem.BlockSize {
		c.d.ddr.Read(base, g, c.ops.get(opWriteInstall, req.Addr, base, false, req.TakeDone()))
	} else {
		c.installWrite(req.TakeDone(), req.Addr, base)
	}
}

// installWrite write-allocates addr's frame, evicting any old resident,
// once any coarse-granularity remainder has arrived from DDR4.
func (c *tad) installWrite(done func(int64), addr, base mem.Addr) {
	c.s.Fills++
	e, _ := c.tags.lookup(addr)
	if e.valid {
		c.dropFromRCU(e, c.tags.base(e))
		c.retire(e, true)
	}
	c.install(e, addr)
	e.dirty = true
	e.lastWrite = true
	c.d.hbm.Write(base, c.tags.granularity(), done)
}

// dropFromRCU removes any pending update for a departing frame so it
// cannot clobber the new resident's TAD, and folds the fresh count into
// the tag entry so the eviction statistics see the block's true reuse
// rather than a stale zero.
func (c *tad) dropFromRCU(e *tagEntry, addr mem.Addr) {
	if c.rcu == nil {
		return
	}
	if cnt, ok := c.rcu.dropBlock(addr); ok {
		e.rcount = cnt
	}
}

// retire accounts a block leaving HBM (eviction or invalidation): the
// last-access-type statistic (§II-C), the zero-reuse counter (read only
// by telemetry and the Result), and the dirty writeback to DDR4 when
// requested.
//
//redvet:hotpath
func (c *tad) retire(e *tagEntry, writebackDirty bool) {
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
func (c *tad) install(e *tagEntry, addr mem.Addr) {
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
func (c *tad) frameBase(addr mem.Addr) mem.Addr {
	return addr &^ mem.Addr(c.tags.granularity()-1)
}

//redvet:hotpath
func satInc(x uint8) uint8 {
	if x == 255 {
		return x
	}
	return x + 1
}
