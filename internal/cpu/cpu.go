// Package cpu models the multicore front end: trace-driven cores with a
// bounded window of outstanding demand loads (the ROB/MLP abstraction of
// the paper's 16-core, 4-issue, 256-entry-ROB CPU) and a posted store
// buffer.  Cores feed L3 misses and writebacks to a memory subsystem
// implementing Submitter.
package cpu

import (
	"redcache/internal/cache"
	"redcache/internal/config"
	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/trace"
)

// Submitter is the memory subsystem below the L3 (a DRAM-cache
// controller from internal/hbm).
type Submitter interface {
	Submit(req *mem.Request)
}

type slot struct {
	done  int64
	ready bool
	// req is the embedded, reused demand-read request for misses served
	// by the memory subsystem; doneFn is its completion callback, bound
	// once when the slot is first allocated.  Controllers never retain a
	// *Request past Submit, so the request could be reused as soon as
	// Submit returns; the slot itself is only recycled after its
	// completion has fired (ready && done <= now).
	req    mem.Request
	doneFn func(finish int64)
}

// slotRing is a fixed-capacity FIFO of in-flight slots.  The window and
// store buffer are architecturally bounded (MaxOutstanding and
// StoreBufferSize), so a preallocated ring plus a slot free list keeps
// the per-record hot path allocation-free; slot pointers stay stable
// for the completion callbacks that write into them.
type slotRing struct {
	buf  []*slot
	head int
	n    int
}

func newSlotRing(capacity int) slotRing { return slotRing{buf: make([]*slot, capacity)} }

//redvet:hotpath
func (r *slotRing) len() int { return r.n }

//redvet:hotpath
func (r *slotRing) full() bool { return r.n == len(r.buf) }

//redvet:hotpath
func (r *slotRing) front() *slot { return r.buf[r.head] }

//redvet:hotpath
func (r *slotRing) push(s *slot) {
	r.buf[(r.head+r.n)%len(r.buf)] = s
	r.n++
}

//redvet:hotpath
func (r *slotRing) pop() *slot {
	s := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return s
}

// Core executes one trace stream.
type Core struct {
	id     int
	eng    *engine.Engine
	hier   *cache.Hierarchy
	memsys Submitter
	stream trace.Stream
	width  int64
	maxOut int
	stCap  int

	cursor    int
	window    slotRing // outstanding loads, oldest first
	stores    slotRing // posted stores awaiting completion
	freeSlots []*slot  // recycled slots (drained in-flight entries)
	scheduled bool
	stalled   bool

	// FinishedAt is the cycle the core retired its last operation, or -1
	// while running.
	FinishedAt int64
	// Instructions counts retired instructions (gaps + memory ops).
	Instructions int64
	// LoadStallCycles approximates cycles lost to a full load window.
	LoadStallCycles int64

	onFinish  func()
	lastStall int64
	// tickFn is the core's single engine callback, created once so
	// scheduling a step never allocates a closure.
	tickFn func()
}

// NewCore builds a core over the shared hierarchy and memory subsystem.
func NewCore(id int, eng *engine.Engine, hier *cache.Hierarchy, ms Submitter,
	s trace.Stream, cfg config.CPU, onFinish func()) *Core {
	c := &Core{
		id: id, eng: eng, hier: hier, memsys: ms, stream: s,
		width:      int64(cfg.IssueWidth),
		maxOut:     cfg.MaxOutstanding,
		stCap:      cfg.StoreBufferSize,
		window:     newSlotRing(cfg.MaxOutstanding),
		stores:     newSlotRing(cfg.StoreBufferSize),
		freeSlots:  make([]*slot, 0, cfg.MaxOutstanding+cfg.StoreBufferSize),
		FinishedAt: -1,
		onFinish:   onFinish,
		lastStall:  -1,
	}
	c.tickFn = func() {
		c.scheduled = false
		c.step()
	}
	return c
}

// Start schedules the core's first step.
func (c *Core) Start() {
	if len(c.stream) == 0 {
		c.FinishedAt = c.eng.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
		return
	}
	c.schedule(c.eng.Now() + c.gapCycles(0))
}

//redvet:hotpath
func (c *Core) gapCycles(i int) int64 {
	g := int64(c.stream[i].Gap)
	if g == 0 {
		return 0
	}
	return (g + c.width - 1) / c.width
}

//redvet:hotpath
func (c *Core) schedule(at int64) {
	if c.scheduled {
		return
	}
	c.scheduled = true
	if now := c.eng.Now(); at < now {
		at = now
	}
	c.eng.Schedule(at, c.tickFn)
}

//redvet:hotpath
func (c *Core) drain(now int64) {
	for c.window.len() > 0 && c.window.front().ready && c.window.front().done <= now {
		c.putSlot(c.window.pop())
	}
	for c.stores.len() > 0 && c.stores.front().ready && c.stores.front().done <= now {
		c.putSlot(c.stores.pop())
	}
}

// putSlot recycles a drained slot.  The free list is preallocated to
// the architectural bound (window + store buffer), so the reslice push
// never grows in practice; growFree keeps the invariant safe anyway.
//
//redvet:hotpath
func (c *Core) putSlot(s *slot) {
	if len(c.freeSlots) == cap(c.freeSlots) {
		c.growFree()
	}
	n := len(c.freeSlots)
	c.freeSlots = c.freeSlots[:n+1]
	c.freeSlots[n] = s
}

// growFree grows the slot free list (unreachable once NewCore has
// preallocated the architectural bound; kept for safety).
//
//redvet:coldstart — free-list growth beyond the preallocated architectural bound
func (c *Core) growFree() {
	grown := make([]*slot, len(c.freeSlots), max(16, 2*cap(c.freeSlots)))
	copy(grown, c.freeSlots)
	c.freeSlots = grown
}

// getSlot reuses a drained slot or allocates a fresh one with its
// completion callback bound.
//
//redvet:hotpath
func (c *Core) getSlot() *slot {
	if n := len(c.freeSlots); n > 0 {
		s := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		s.done, s.ready = 0, false
		return s
	}
	return c.newSlot()
}

// newSlot services a free-list miss: each slot is created once, with
// its completion callback bound for the slot's whole lifetime, and the
// live count is bounded by window + store buffer.
//
//redvet:coldstart — slot pool fill up to the architectural bound; binds the once-per-slot completion closure
func (c *Core) newSlot() *slot {
	s := new(slot)
	s.doneFn = func(finish int64) {
		s.done, s.ready = finish, true
		c.kick()
	}
	return s
}

// kick resumes a core stalled on a memory completion.
//
//redvet:hotpath
func (c *Core) kick() {
	if c.stalled {
		c.stalled = false
		c.schedule(c.eng.Now())
	}
}

//redvet:hotpath
func (c *Core) step() {
	now := c.eng.Now()
	c.drain(now)

	if c.cursor >= len(c.stream) {
		c.maybeFinish(now)
		return
	}

	rec := &c.stream[c.cursor]

	// Structural stalls: full load window or store buffer.  In-order
	// retirement means the oldest entry gates progress.
	if !rec.Write && c.window.full() {
		c.stallOn(c.window.front(), now)
		return
	}
	if rec.Write && c.stores.full() {
		c.stallOn(c.stores.front(), now)
		return
	}
	if c.lastStall >= 0 {
		c.LoadStallCycles += now - c.lastStall
		c.lastStall = -1
	}

	addr := rec.Addr()
	level, lat := c.hier.Access(c.id, addr, rec.Write)
	s := c.getSlot()
	if level == cache.Memory {
		s.req = mem.Request{
			Addr:   addr,
			Type:   mem.Read, // store misses fetch-for-ownership
			Core:   c.id,
			Issued: now,
			Done:   s.doneFn,
		}
		c.memsys.Submit(&s.req)
	} else {
		s.done, s.ready = now+lat, true
	}
	if rec.Write {
		c.stores.push(s)
	} else {
		c.window.push(s)
	}

	c.Instructions += int64(rec.Gap) + 1
	c.cursor++
	if c.cursor < len(c.stream) {
		c.schedule(now + 1 + c.gapCycles(c.cursor))
	} else {
		c.schedule(now + 1)
	}
}

//redvet:hotpath
func (c *Core) stallOn(s *slot, now int64) {
	if c.lastStall < 0 {
		c.lastStall = now
	}
	if s.ready {
		at := s.done
		if at <= now {
			at = now + 1
		}
		c.schedule(at)
		return
	}
	c.stalled = true
}

//redvet:hotpath
func (c *Core) maybeFinish(now int64) {
	if c.window.len() == 0 && c.stores.len() == 0 {
		if c.FinishedAt < 0 {
			c.FinishedAt = now
			if c.onFinish != nil {
				c.onFinish()
			}
		}
		return
	}
	// Wait for the oldest pending slot.
	var oldest *slot
	if c.window.len() > 0 {
		oldest = c.window.front()
	} else {
		oldest = c.stores.front()
	}
	c.stallOn(oldest, now)
}

// Complex is the whole CPU: cores sharing a hierarchy.
type Complex struct {
	Cores []*Core
	Hier  *cache.Hierarchy

	remaining int
	// AllDoneAt is the cycle the last core finished, -1 while running.
	AllDoneAt int64

	eng    *engine.Engine
	memsys Submitter
	// wb is the one request every L3 writeback travels in: controllers
	// never retain a *Request past Submit, so it is overwritten per
	// eviction instead of allocated.
	wb mem.Request
}

// NewComplex builds cores over t's streams; the Writeback path of the
// hierarchy is wired to ms as posted write requests.
func NewComplex(eng *engine.Engine, cfg *config.System, t *trace.Trace, ms Submitter) *Complex {
	cx := &Complex{AllDoneAt: -1, eng: eng, memsys: ms}
	cx.Hier = cache.NewHierarchy(len(t.Streams), cfg.L1, cfg.L2, cfg.L3)
	cx.Hier.Writeback = cx.writeback
	cx.remaining = len(t.Streams)
	onFinish := func() {
		cx.remaining--
		if cx.remaining == 0 {
			cx.AllDoneAt = eng.Now()
		}
	}
	for i, s := range t.Streams {
		cx.Cores = append(cx.Cores, NewCore(i, eng, cx.Hier, ms, s, cfg.CPU, onFinish))
	}
	return cx
}

// writeback submits a dirty L3 victim as a posted write.
//
//redvet:hotpath
func (cx *Complex) writeback(b mem.BlockID) {
	cx.wb = mem.Request{Addr: b.Addr(), Type: mem.Write, Core: -1, Issued: cx.eng.Now()}
	cx.memsys.Submit(&cx.wb)
}

// Start launches every core.
func (cx *Complex) Start() {
	for _, c := range cx.Cores {
		c.Start()
	}
}

// Instructions sums retired instructions across cores.
func (cx *Complex) Instructions() int64 {
	var n int64
	for _, c := range cx.Cores {
		n += c.Instructions
	}
	return n
}
