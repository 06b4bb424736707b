package hbm

// Pooled miss-path continuations.  Rather than capture its continuation
// in a per-miss closure handed to the DRAM layer, each controller owns a
// pool of op records with a once-bound fire callback: the record
// carries the data the closure would capture, so once the pool has
// warmed up to the miss-concurrency high-water mark the miss path
// allocates nothing.  The tag entry is recomputed positionally from the
// address (the tag store is direct-mapped and never reallocates).

import "redcache/internal/mem"

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
type op struct {
	kind opKind
	addr mem.Addr // the demand request's address
	base mem.Addr // frame base of the fill transfer
	fill bool     // BEAR's bandwidth-aware-bypass verdict
	// done is the demand request's completion callback, detached with
	// TakeDone at submit time; the op never holds the request itself.
	done func(int64)
	// fire is the once-bound completion callback handed to the DRAM
	// layer in place of a per-miss closure.
	fire func(int64)
}

// opPool recycles op records.  The free list is LIFO so a mostly-serial
// miss stream reuses one record forever.
type opPool struct {
	free []*op
	// run is the owning controller's dispatch over kind.
	run func(o *op, finish int64)
}

func newOpPool(run func(o *op, finish int64)) *opPool {
	return &opPool{run: run}
}

// newOp services a free-list miss: each record is created once, with
// its fire callback bound for the record's whole lifetime.
//
//redvet:coldstart — op pool fill up to the miss-concurrency high-water mark; binds the once-per-op fire closure
func (p *opPool) newOp() *op {
	o := &op{}
	o.fire = func(f int64) {
		p.run(o, f)
		o.kind = opIdle
		o.done = nil
		p.free = append(p.free, o)
	}
	return o
}

// get arms a record for one in-flight continuation and returns its fire
// callback.
//
//redvet:hotpath
func (p *opPool) get(kind opKind, addr, base mem.Addr, fill bool, done func(int64)) func(int64) {
	var o *op
	if n := len(p.free); n > 0 {
		o = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		o = p.newOp()
	}
	o.kind, o.addr, o.base, o.fill, o.done = kind, addr, base, fill, done
	return o.fire
}
