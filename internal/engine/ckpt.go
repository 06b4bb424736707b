package engine

// Checkpoint support: the event heap stores bare func values, which
// cannot be serialized — so every callback that can be live in a heap
// at a checkpoint boundary is registered once at wire-up under a stable
// structural key.  Saving maps each queued event's func
// value back to its key through funcval-pointer identity; loading
// resolves keys against the freshly wired machine's registry, so a
// restored heap fires the new machine's callbacks in the old order.
//
// Keys are packed (component, a, b) triples: the component namespace
// is fixed below, and a/b are structural indices (core number, slot
// id, channel index, pool ordinal) that a deterministic wire-up
// reproduces run after run.  Keys never depend on registration
// sequence, so pools that grow mid-run keep stable identities.

import (
	"fmt"
	"sort"
	"unsafe"

	"redcache/internal/ckpt"
)

// Component namespaces for FnRegistry keys.  One per callback family
// that can appear in an event heap.
const (
	// KeyPeriodic: a Periodic's tick, a = creation ordinal on its engine.
	KeyPeriodic uint8 = 1
	// KeyCPUSlot: a CPU load-slot completion, a = core, b = slot index.
	KeyCPUSlot uint8 = 2
	// KeyCPUCore: a core's issue tick, a = core.
	KeyCPUCore uint8 = 3
	// KeyDRAMWake: a DRAM channel scheduler wake, a = controller id,
	// b = channel index.
	KeyDRAMWake uint8 = 4
	// KeyHBMOp: an HBM controller miss-op continuation, b = pool index.
	KeyHBMOp uint8 = 6
	// KeyTxnDone: a DRAM transaction completion that is not a
	// registered callback in its own right (unused; Txn completions
	// reuse the keys above through their onDone owners).
	KeyTxnDone uint8 = 7
)

// Key packs a component namespace and two structural indices into the
// stable registry key.
func Key(comp uint8, a, b uint32) uint64 {
	return uint64(comp)<<56 | uint64(a&0xffffff)<<32 | uint64(b)
}

// FnRegistry maps stable keys to the once-bound callback values a
// machine wired up, in all three scheduling shapes.  It is consulted
// only on the save/load paths — the hot scheduling paths never touch
// it.
type FnRegistry struct {
	fns   map[uint64]func()
	timed map[uint64]func(int64)
	args  map[uint64]func(uint64)
	rev   map[uintptr]uint64

	// ptrs/ptrRev index long-lived component-owned objects (e.g. a CPU
	// slot's embedded request) that other components hold pointers to
	// across a checkpoint; saving writes the key, loading resolves the
	// freshly wired machine's object.
	ptrs   map[uint64]unsafe.Pointer
	ptrRev map[unsafe.Pointer]uint64
}

// NewFnRegistry returns an empty registry.
func NewFnRegistry() *FnRegistry {
	return &FnRegistry{
		fns:    make(map[uint64]func()),
		timed:  make(map[uint64]func(int64)),
		args:   make(map[uint64]func(uint64)),
		rev:    make(map[uintptr]uint64),
		ptrs:   make(map[uint64]unsafe.Pointer),
		ptrRev: make(map[unsafe.Pointer]uint64),
	}
}

// fnID extracts the funcval pointer of a func value.  Closures and
// method values allocate one funcval each, bound once per component at
// wire-up, so the pointer is a stable identity for the lifetime of the
// machine.  (reflect.Value.Pointer is not usable here: it returns the
// shared code pointer, identical across closures of the same function.)
func fnID[T any](fn T) uintptr {
	return *(*uintptr)(unsafe.Pointer(&fn))
}

// register indexes one key/funcval pair, panicking on duplicates —
// both are wire-up bugs that would silently corrupt a later restore.
func (r *FnRegistry) register(key uint64, id uintptr) {
	if _, dup := r.rev[id]; dup {
		panic(fmt.Sprintf("engine: callback registered twice (key %#x)", key))
	}
	if _, dup := r.fns[key]; dup {
		panic(fmt.Sprintf("engine: duplicate registry key %#x", key))
	}
	if _, dup := r.timed[key]; dup {
		panic(fmt.Sprintf("engine: duplicate registry key %#x", key))
	}
	if _, dup := r.args[key]; dup {
		panic(fmt.Sprintf("engine: duplicate registry key %#x", key))
	}
	r.rev[id] = key
}

// RegisterFn registers a Schedule-shaped callback.
func (r *FnRegistry) RegisterFn(key uint64, fn func()) {
	r.register(key, fnID(fn))
	r.fns[key] = fn
}

// RegisterTimed registers a ScheduleTimed-shaped callback.
func (r *FnRegistry) RegisterTimed(key uint64, fn func(int64)) {
	r.register(key, fnID(fn))
	r.timed[key] = fn
}

// RegisterArg registers a ScheduleArg-shaped callback.
func (r *FnRegistry) RegisterArg(key uint64, fn func(uint64)) {
	r.register(key, fnID(fn))
	r.args[key] = fn
}

// TimedByKey resolves a registered ScheduleTimed-shaped callback;
// components use it to restore saved func-typed fields (e.g. a
// transaction's completion) by key.
func (r *FnRegistry) TimedByKey(key uint64) (func(int64), bool) {
	fn, ok := r.timed[key]
	return fn, ok
}

// TimedKeyOf reverse-maps a live ScheduleTimed-shaped callback to its
// key.  ok is false for unregistered callbacks — a save-path error,
// never silently encoded.
func (r *FnRegistry) TimedKeyOf(fn func(int64)) (uint64, bool) {
	if fn == nil {
		return 0, false
	}
	key, ok := r.rev[fnID(fn)]
	return key, ok
}

// RegisterPtr registers a stable object identity under key.  Keys share
// the Key namespace with callbacks but live in a separate index, so a
// component may register a slot's completion callback and its embedded
// request under the same structural key.
func (r *FnRegistry) RegisterPtr(key uint64, p unsafe.Pointer) {
	if _, dup := r.ptrRev[p]; dup {
		panic(fmt.Sprintf("engine: pointer registered twice (key %#x)", key))
	}
	if _, dup := r.ptrs[key]; dup {
		panic(fmt.Sprintf("engine: duplicate pointer registry key %#x", key))
	}
	r.ptrs[key] = p
	r.ptrRev[p] = key
}

// PtrKeyOf reverse-maps a registered object to its key.
func (r *FnRegistry) PtrKeyOf(p unsafe.Pointer) (uint64, bool) {
	key, ok := r.ptrRev[p]
	return key, ok
}

// PtrByKey resolves a registered object by key.
func (r *FnRegistry) PtrByKey(key uint64) (unsafe.Pointer, bool) {
	p, ok := r.ptrs[key]
	return p, ok
}

// Section tags for the engine-owned payload regions.
const tagEngine = 0x454e4731 // "ENG1"

// Event heap bound for Count validation: no simulated machine queues
// anywhere near this many events.
const maxHeapEvents = 1 << 28

// SaveState serializes the engine: clock, sequence counter, fired
// count, periodic bookkeeping, and the event heap as (at, seq, key,
// arg) tuples in firing order.  Every queued callback must be
// registered in reg, or the save fails — an unregistered callback
// could never be rebound on restore.
func (e *Engine) SaveState(w *ckpt.Writer, reg *FnRegistry) error {
	w.Tag(tagEngine)
	w.I64(e.now)
	w.U64(e.seq)
	w.U64(e.Fired)
	w.Int(e.periodicTicks)

	evs := append([]Event(nil), e.events...)
	sort.Slice(evs, func(i, j int) bool {
		return before(evs[i].at, evs[i].seq, evs[j].at, evs[j].seq)
	})
	w.Count(len(evs))
	for i := range evs {
		ev := &evs[i]
		var id uintptr
		var kind uint8
		switch {
		case ev.fn != nil:
			id, kind = fnID(ev.fn), 0
		case ev.fnTimed != nil:
			id, kind = fnID(ev.fnTimed), 1
		default:
			id, kind = fnID(ev.fnArg), 2
		}
		key, ok := reg.rev[id]
		if !ok {
			return fmt.Errorf("engine: event at cycle %d (seq %d) holds an unregistered callback; checkpointing requires every schedulable callback registered at wire-up", ev.at, ev.seq)
		}
		w.I64(ev.at)
		w.U64(ev.seq)
		w.U8(kind)
		w.U64(key)
		w.U64(ev.arg)
	}

	w.Count(len(e.periodics))
	for _, p := range e.periodics {
		w.I64(p.period)
		w.Bool(p.stopped)
	}
	return nil
}

// LoadState restores the engine into a freshly wired machine: the
// wire-up's provisional events are discarded and the saved heap is
// rebound against reg.  The tuples were saved in (at, seq) order, and
// a sorted array is a valid min-heap under any arity, so the slice is
// adopted directly.
func (e *Engine) LoadState(r *ckpt.Reader, reg *FnRegistry) error {
	r.Tag(tagEngine)
	e.now = r.I64()
	e.seq = r.U64()
	e.Fired = r.U64()
	e.periodicTicks = r.Int()

	n := r.Count(maxHeapEvents)
	if err := r.Err(); err != nil {
		return err
	}
	e.events = e.events[:0]
	if cap(e.events) < n {
		e.events = make([]Event, 0, n)
	}
	var prevAt int64
	var prevSeq uint64
	for i := 0; i < n; i++ {
		at := r.I64()
		seq := r.U64()
		kind := r.U8()
		key := r.U64()
		arg := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		if i > 0 && !before(prevAt, prevSeq, at, seq) {
			return fmt.Errorf("engine: event %d out of (at, seq) order: %w", i, ckpt.ErrCorrupt)
		}
		prevAt, prevSeq = at, seq
		ev := Event{at: at, seq: seq, arg: arg}
		switch kind {
		case 0:
			ev.fn = reg.fns[key]
		case 1:
			ev.fnTimed = reg.timed[key]
		case 2:
			ev.fnArg = reg.args[key]
		default:
			return fmt.Errorf("engine: event %d has callback kind %d: %w", i, kind, ckpt.ErrCorrupt)
		}
		if ev.fn == nil && ev.fnTimed == nil && ev.fnArg == nil {
			return fmt.Errorf("engine: event %d references unknown callback key %#x: %w", i, key, ckpt.ErrCorrupt)
		}
		e.events = append(e.events, ev)
	}

	np := r.Count(1 << 16)
	if err := r.Err(); err != nil {
		return err
	}
	if np != len(e.periodics) {
		return fmt.Errorf("engine: checkpoint has %d periodics, machine wired %d: %w",
			np, len(e.periodics), ckpt.ErrCorrupt)
	}
	for _, p := range e.periodics {
		period := r.I64()
		if r.Err() == nil && period != p.period {
			return fmt.Errorf("engine: periodic period %d, machine wired %d: %w",
				period, p.period, ckpt.ErrCorrupt)
		}
		p.stopped = r.Bool()
	}
	return r.Err()
}
