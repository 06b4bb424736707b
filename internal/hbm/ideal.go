package hbm

import "redcache/internal/mem"

// ideal is the Fig 1(b) topology: a perfect HBM cache with a 100% hit
// rate.  It never touches DDR4, but it still pays the tag-check
// bandwidth: every request starts with a TAD read, and a write needs a
// second HBM access after the bus turns around (Fig 7's premise that "a
// single tag and data may be accessed per transfer").
type ideal struct {
	d   deps
	s   Stats
	ops *opPool
}

func newIdeal(d deps) *ideal {
	c := &ideal{d: d}
	c.ops = newOpPool(c.fireOp)
	return c
}

// fireOp dispatches a pooled continuation (see op.go): the write's
// second HBM access after the tag-check read returns.
func (c *ideal) fireOp(o *op, _ int64) {
	if o.kind == opIdealWrite {
		c.d.hbm.Write(o.addr, mem.BlockSize, o.done)
	}
}

func (c *ideal) Name() Arch    { return ArchIdeal }
func (c *ideal) Stats() *Stats { return &c.s }
func (c *ideal) Drain()        {}

func (c *ideal) Submit(req *mem.Request) {
	c.s.TagProbes++
	c.s.Demand.Hits++
	if req.Type == mem.Write {
		c.s.Writes++
		// Tag-check read, then the data write.
		c.d.hbm.Read(req.Addr, mem.BlockSize,
			c.ops.get(opIdealWrite, req.Addr, req.Addr, false, req.TakeDone()))
		return
	}
	c.s.Reads++
	c.d.hbm.Read(req.Addr, mem.BlockSize, req.TakeDone())
}
