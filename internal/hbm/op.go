package hbm

// Pooled miss-path continuations.  A controller's miss path used to
// capture its continuation in a per-miss closure handed to the DRAM
// layer; closures cannot be serialized, so a checkpoint could never
// restore an in-flight miss.  Instead each controller owns a pool of op
// records with a once-bound fire callback registered under a stable
// (KeyHBMOp, pool ordinal) key: the record carries the data the closure
// used to capture, and the tag entry is recomputed positionally from
// the address (the tag store is direct-mapped and never reallocates).

import (
	"redcache/internal/engine"
	"redcache/internal/mem"
)

// opKind discriminates the deferred continuations a controller can have
// in flight.
type opKind uint8

const (
	opIdle opKind = iota
	opAlloyReadFill
	opAlloyWriteInstall
	opBearReadFill
	opIdealWrite
	opRedReadFill
	opRedWriteInstall
)

// op is one pooled continuation record.
//
//redvet:state
type op struct {
	// id is the op's creation ordinal in its pool — its stable
	// checkpoint identity.
	id   int
	kind opKind
	addr mem.Addr // the demand request's address
	base mem.Addr // frame base of the fill transfer
	fill bool     // BEAR's bandwidth-aware-bypass verdict
	// req is the demand request being served; inlineReq is its op-owned
	// body when the original (e.g. a writeback) has no registered home.
	req       *mem.Request
	inlineReq mem.Request
	// fire is the once-bound completion callback handed to the DRAM
	// layer in place of a per-miss closure.
	fire func(int64)
}

// opPool recycles op records.  The free list is LIFO so a mostly-serial
// miss stream reuses one record forever.
//
//redvet:state
type opPool struct {
	ops  []*op
	free []*op
	// run is the owning controller's dispatch over kind.
	run func(o *op, finish int64)
	// reg, when attached, assigns each new op's fire a stable key.
	reg *engine.FnRegistry
}

func newOpPool(run func(o *op, finish int64)) *opPool {
	return &opPool{run: run}
}

// attach wires the registry and registers any ops already created.
// Called at wire-up, before the first Submit in practice.
func (p *opPool) attach(reg *engine.FnRegistry) {
	p.reg = reg
	for _, o := range p.ops {
		reg.RegisterTimed(engine.Key(engine.KeyHBMOp, 0, uint32(o.id)), o.fire)
	}
}

// newOp services a free-list miss: each record is created once, with
// its fire callback bound for the record's whole lifetime.
//
//redvet:coldstart — op pool fill up to the miss-concurrency high-water mark; binds the once-per-op fire closure
func (p *opPool) newOp() *op {
	o := &op{id: len(p.ops)}
	o.fire = func(f int64) {
		p.run(o, f)
		o.kind = opIdle
		o.req = nil
		o.inlineReq = mem.Request{}
		p.free = append(p.free, o)
	}
	p.ops = append(p.ops, o)
	if p.reg != nil {
		p.reg.RegisterTimed(engine.Key(engine.KeyHBMOp, 0, uint32(o.id)), o.fire)
	}
	return o
}

// get arms a record for one in-flight continuation and returns its fire
// callback.
//
//redvet:hotpath
func (p *opPool) get(kind opKind, addr, base mem.Addr, fill bool, req *mem.Request) func(int64) {
	var o *op
	if n := len(p.free); n > 0 {
		o = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		o = p.newOp()
	}
	o.kind, o.addr, o.base, o.fill, o.req = kind, addr, base, fill, req
	return o.fire
}
