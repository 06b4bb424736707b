package hbm

import "redcache/internal/mem"

// alloy is the Alloy Cache baseline (Qureshi & Loh, MICRO'12): a
// direct-mapped DRAM cache storing tag-and-data (TAD) together, so one
// HBM stream both checks the tag and returns the data.  Tags ride in
// spare ECC bits, so a TAD probe costs one block-sized access.
//
// Flow per the RedCache paper's Fig 7 premise:
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
//
//redvet:state
type alloy struct {
	ctlBase
	ops *opPool
}

func newAlloy(d deps) *alloy {
	c := &alloy{ctlBase: newCtlBase(d)}
	c.ops = newOpPool(c.fireOp)
	return c
}

// fireOp dispatches a pooled miss continuation (see op.go).
func (c *alloy) fireOp(o *op, f int64) {
	switch o.kind {
	case opAlloyReadFill:
		c.finishReadFill(o.req, o.addr, o.base, f)
	case opAlloyWriteInstall:
		c.installWrite(o.req, o.addr, o.base)
	}
}

func (c *alloy) Name() Arch { return ArchAlloy }
func (c *alloy) Drain()     {}

func (c *alloy) Submit(req *mem.Request) {
	if req.Type == mem.Write {
		c.s.Writes++
		c.handleWrite(req)
		return
	}
	c.s.Reads++
	c.handleRead(req)
}

func (c *alloy) handleRead(req *mem.Request) {
	e, hit := c.lookupFaulty(req.Addr)
	c.s.TagProbes++
	g := c.tags.granularity()
	if hit {
		c.s.Demand.Hits++
		e.rcount = satInc(e.rcount)
		e.lastWrite = false
		c.d.hbm.Read(req.Addr, mem.BlockSize, req.TakeDone())
		c.inj.DataRead(uint64(req.Addr)) // TADs trade ECC for tags here too
		return
	}
	c.s.Demand.Misses++
	// The TAD probe still occupies the HBM bus (and returns the victim).
	c.d.hbm.Read(req.Addr, mem.BlockSize, nil)
	base := c.frameBase(req.Addr.Align())
	c.d.ddr.Read(base, g, c.ops.get(opAlloyReadFill, req.Addr, base, false, req))
}

// finishReadFill completes a read-miss fill after the DDR4 data
// arrives (posted).  The tag entry is positional: the store is
// direct-mapped and never reallocates, so the entry the submit-time
// probe returned is exactly addr's frame.
func (c *alloy) finishReadFill(req *mem.Request, addr, base mem.Addr, f int64) {
	req.Complete(f)
	c.s.Fills++
	e, _ := c.tags.lookup(addr)
	if e.valid {
		c.retire(e, true)
	}
	c.install(e, addr)
	c.d.hbm.Write(base, c.tags.granularity(), nil)
}

func (c *alloy) handleWrite(req *mem.Request) {
	e, hit := c.lookupFaulty(req.Addr)
	c.s.TagProbes++
	c.d.hbm.Read(req.Addr, mem.BlockSize, nil) // probe
	if hit {
		c.s.Demand.Hits++
		e.rcount = satInc(e.rcount)
		e.dirty = true
		e.lastWrite = true
		c.d.hbm.Write(req.Addr, mem.BlockSize, req.TakeDone())
		return
	}
	c.s.Demand.Misses++
	// Write-allocate: a 64 B L3 writeback covers a whole 64 B frame; for
	// coarser granularity the remainder is fetched from DDR4 first.
	g := c.tags.granularity()
	base := c.frameBase(req.Addr.Align())
	if g > mem.BlockSize {
		c.d.ddr.Read(base, g, c.ops.get(opAlloyWriteInstall, req.Addr, base, false, req))
	} else {
		c.installWrite(req, req.Addr, base)
	}
}

// installWrite write-allocates addr's frame once any coarse-granularity
// remainder has arrived from DDR4.
func (c *alloy) installWrite(req *mem.Request, addr, base mem.Addr) {
	c.s.Fills++
	e, _ := c.tags.lookup(addr)
	if e.valid {
		c.retire(e, true)
	}
	c.install(e, addr)
	e.dirty = true
	e.lastWrite = true
	c.d.hbm.Write(base, c.tags.granularity(), req.TakeDone())
}

//redvet:hotpath
func satInc(x uint8) uint8 {
	if x == 255 {
		return x
	}
	return x + 1
}
