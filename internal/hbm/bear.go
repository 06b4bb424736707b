package hbm

import (
	"math/rand"

	"redcache/internal/mem"
)

// bear is the BEAR baseline (Chou, Jaleel, Qureshi, ISCA'15): Alloy plus
// three bandwidth-bloat mitigations, approximated per DESIGN.md §5:
//
//  1. Bandwidth-Aware Bypass (BAB): miss fills are installed only with a
//     probability steered by a sampled hit-rate monitor, so a thrashing
//     cache stops paying fill+victim bandwidth.
//  2. Writeback-probe elimination via the DRAM-Cache-Presence (DCP)
//     filter: writebacks of absent blocks go straight to DDR4 without
//     the HBM tag probe, and present blocks are updated without a
//     separate probe read.
//
// Read misses still pay the TAD probe, as in Alloy and in BEAR itself —
// the probe doubles as the data fetch on a hit, and BEAR has no
// affordable structure to prove a read absent.  The DCP filter is exact
// in simulation (the functional tag store is available); real BEAR
// tracks presence bits alongside L3 lines with small error.
type bear struct {
	ctlBase
	rng *rand.Rand
	// hitEWMA tracks recent demand hit rate in [0,1].
	hitEWMA float64
	// sampleCtr dedicates 1/32 of accesses to always-fill sampling so the
	// monitor keeps observing the cache's potential.
	sampleCtr uint64
	ops       *opPool
}

const bearEWMAWeight = 0.002

// bearSeedMix decorrelates the BAB sampler from every other consumer of
// the run seed.
const bearSeedMix = 0xbea7

func newBear(d deps) *bear {
	c := &bear{
		ctlBase: newCtlBase(d),
		rng:     rand.New(rand.NewSource(d.cfg.Seed ^ bearSeedMix)),
		hitEWMA: 0.5,
	}
	c.ops = newOpPool(c.fireOp)
	return c
}

// fireOp dispatches a pooled miss continuation (see op.go).
func (c *bear) fireOp(o *op, f int64) {
	if o.kind == opBearReadFill {
		c.finishReadFill(o.done, o.addr, o.base, o.fill, f)
	}
}

func (c *bear) Name() Arch { return ArchBear }
func (c *bear) Drain()     {}

func (c *bear) observe(hit bool) {
	v := 0.0
	if hit {
		v = 1.0
	}
	c.hitEWMA += bearEWMAWeight * (v - c.hitEWMA)
}

// shouldFill implements BAB: sample sets always fill; an uncontended
// cache always fills (bypassing exists to relieve bandwidth pressure,
// not to shrink the cache); otherwise the fill probability rises with
// the observed usefulness of the cache.
func (c *bear) shouldFill() bool {
	c.sampleCtr++
	if c.sampleCtr%32 == 0 {
		return true
	}
	if now := c.d.eng.Now(); now > 0 {
		if util := float64(c.d.hbm.Interface().BusyCycles) / float64(now); util < 0.4 {
			return true
		}
	}
	p := 0.1 + 0.9*c.hitEWMA
	return c.rng.Float64() < p
}

func (c *bear) Submit(req *mem.Request) {
	if req.Type == mem.Write {
		c.s.Writes++
		c.handleWrite(req)
		return
	}
	c.s.Reads++
	c.handleRead(req)
}

func (c *bear) handleRead(req *mem.Request) {
	e, hit := c.tags.lookup(req.Addr)
	c.s.TagProbes++
	c.observe(hit)
	g := c.tags.granularity()
	base := c.frameBase(req.Addr.Align())
	if hit {
		c.s.Demand.Hits++
		e.rcount = satInc(e.rcount)
		e.lastWrite = false
		c.d.hbm.Read(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	c.s.Demand.Misses++
	// The TAD probe still happens (it returned the victim's data).
	c.d.hbm.Read(req.Addr, mem.BlockSize, nil)
	fill := c.shouldFill()
	c.d.ddr.Read(base, g, c.ops.get(opBearReadFill, req.Addr, base, fill, req.TakeDone()))
}

// finishReadFill completes a read miss: the BAB verdict was drawn at
// submit time and travels with the op.
func (c *bear) finishReadFill(done func(int64), addr, base mem.Addr, fill bool, f int64) {
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
		c.retire(e, true)
	}
	c.install(e, addr)
	c.d.hbm.Write(base, c.tags.granularity(), nil)
}

func (c *bear) handleWrite(req *mem.Request) {
	e, hit := c.tags.lookup(req.Addr)
	c.s.SRAMAccess++ // presence-filter lookup
	if hit {
		c.s.Demand.Hits++
		// Present: update in place.  The presence filter removes the
		// probe read; the write itself still pays the HBM access.
		e.rcount = satInc(e.rcount)
		e.dirty = true
		e.lastWrite = true
		c.d.hbm.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	// Writeback-probe elimination: absent blocks go straight to DDR4
	// with no allocation (BEAR does not write-allocate bypassed lines).
	c.s.Demand.Misses++
	c.s.DirectToMem++
	c.d.ddr.Write(req.Addr, mem.BlockSize, req.TakeDone())
}
