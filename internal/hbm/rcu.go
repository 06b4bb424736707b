package hbm

import (
	"redcache/internal/dram"
	"redcache/internal/mem"
	"redcache/internal/obs"
)

// rcuManager implements the r-count update manager of §III-C: a 32-entry
// CAM (block index, decoded DRAM location) plus RAM (the block with its
// refreshed r-count) that defers the DRAM write needed to persist an
// r-count after a read hit.  A queued update is persisted when
//
//  1. the command scheduler issues a demand write to the same DRAM row —
//     the update piggybacks at tCCD cost instead of paying a bus
//     turnaround (hooked into dram.Controller's WriteHook),
//  2. the transaction queue of the entry's channel drains (IdleHook), or
//  3. never: when the queue is full the oldest update is dropped.  The
//     r-count in DRAM merely goes stale — the block looks younger than
//     it is and γ invalidation fires later, a bounded heuristic error,
//     not a correctness problem.  This is what keeps RedCache within a
//     hair of Red-InSitu: most updates cost nothing at all.
//
// Demand writes to a queued block persist its count for free (the write
// rewrites the whole TAD anyway), and because the RAM holds the 32 most
// recently read blocks it doubles as a tiny block cache.
//
//redvet:state
type rcuEntry struct {
	addr  mem.Addr
	loc   dram.Location
	count uint8
}

// rcUpdateBytes is the size of one persisted r-count update: a masked
// write into the 8 B tag+ECC region of the TAD, not a full 64 B burst.
const rcUpdateBytes = 8

//redvet:state
type rcuManager struct {
	hbm     *dram.Controller
	cap     int
	entries []rcuEntry // FIFO by last touch, oldest first
	st      *RCUStats
	// persist applies a flushed count to the controller's tag state (the
	// simulator's stand-in for DRAM contents).
	persist func(addr mem.Addr, count uint8)
	// tr traces update dispositions (nil unless telemetry is wired).
	tr *obs.Tracer
}

func newRCUManager(hbm *dram.Controller, capacity int, st *RCUStats,
	persist func(mem.Addr, uint8)) *rcuManager {
	// The entry count is bounded by the CAM capacity; preallocating keeps
	// every put/flush cycle reallocation-free for the whole run.
	return &rcuManager{hbm: hbm, cap: capacity, st: st, persist: persist,
		entries: make([]rcuEntry, 0, capacity)}
}

// Len reports the number of pending updates.
//
//redvet:hotpath
func (r *rcuManager) Len() int { return len(r.entries) }

// find returns the index of addr's entry, or -1.
//
//redvet:hotpath
func (r *rcuManager) find(addr mem.Addr) int {
	for i := range r.entries {
		if r.entries[i].addr == addr {
			return i
		}
	}
	return -1
}

// put registers (or refreshes) a deferred r-count update.  When the
// queue is full the oldest pending update is dropped — its count stays
// stale in DRAM.
//
//redvet:hotpath
func (r *rcuManager) put(addr mem.Addr, count uint8) {
	addr = addr.Align()
	if i := r.find(addr); i >= 0 {
		// Refresh in place and move to MRU position.
		e := r.entries[i]
		e.count = count
		copy(r.entries[i:], r.entries[i+1:])
		r.entries[len(r.entries)-1] = e
		return
	}
	if len(r.entries) >= r.cap {
		r.st.Dropped++
		r.tr.Emit(obs.EvRCUOverflow, uint64(r.entries[0].addr), int64(r.entries[0].count), 0)
		copy(r.entries, r.entries[1:])
		r.entries = r.entries[:len(r.entries)-1]
	}
	r.st.Enqueued++
	// Reslice push: the backing array is preallocated to the CAM
	// capacity and the overflow branch above guarantees room.
	n := len(r.entries)
	r.entries = r.entries[:n+1]
	r.entries[n] = rcuEntry{addr: addr, loc: r.hbm.Map(addr), count: count}
	r.tr.Emit(obs.EvRCUEnqueue, uint64(addr), int64(count), int64(len(r.entries)))
}

// lookup returns the pending count for addr, if any.
//
//redvet:hotpath
func (r *rcuManager) lookup(addr mem.Addr) (count uint8, ok bool) {
	if i := r.find(addr.Align()); i >= 0 {
		return r.entries[i].count, true
	}
	return 0, false
}

// onWrite is the dram.WriteHook: when a demand write column command
// issues to loc, same-row pending updates piggyback onto the burst and
// are persisted.  It returns the extra bytes appended to the transfer.
//
//redvet:hotpath
func (r *rcuManager) onWrite(loc dram.Location) int {
	// In-place index filter (compacts survivors to the front); the
	// equivalent kept/append idiom cannot be statically proven
	// non-growing even though it never grows.
	n, k := 0, 0
	for i := range r.entries {
		e := r.entries[i]
		if e.loc.SameRow(loc) {
			n++
			r.st.Piggyback++
			r.tr.Emit(obs.EvRCUPiggyback, uint64(e.addr), int64(e.count), 0)
			r.persist(e.addr, e.count)
			continue
		}
		r.entries[k] = e
		k++
	}
	r.entries = r.entries[:k]
	return n * rcUpdateBytes
}

// onIdle is the dram.IdleHook: the channel's transaction queue drained,
// so pending updates on that channel can persist cheaply.  Flushing is
// gated on queue pressure — below half capacity the updates stay put,
// since an aged-out update merely goes stale while every flush write
// still activates a row the next demand access may have to close.
//
//redvet:hotpath
func (r *rcuManager) onIdle(ch int) {
	if len(r.entries) <= r.cap/2 {
		return
	}
	budget := len(r.entries) - r.cap/2
	k := 0
	for i := range r.entries {
		e := r.entries[i]
		if budget > 0 && e.loc.Channel == ch {
			r.st.IdleFlush++
			r.tr.Emit(obs.EvRCUIdleFlush, uint64(e.addr), int64(e.count), 0)
			r.persist(e.addr, e.count)
			r.hbm.Write(e.addr, rcUpdateBytes, nil)
			budget--
			continue
		}
		r.entries[k] = e
		k++
	}
	r.entries = r.entries[:k]
}

// dropBlock removes a pending update for addr, returning its count: a
// demand write to the block carries the fresh count for free, and a
// departing block's update must not clobber the frame's next resident.
//
//redvet:hotpath
func (r *rcuManager) dropBlock(addr mem.Addr) (count uint8, ok bool) {
	if i := r.find(addr.Align()); i >= 0 {
		count = r.entries[i].count
		copy(r.entries[i:], r.entries[i+1:])
		r.entries = r.entries[:len(r.entries)-1]
		r.st.Merged++
		return count, true
	}
	return 0, false
}

// drain persists everything at end of run.
func (r *rcuManager) drain() {
	for _, e := range r.entries {
		r.st.DrainFlush++
		r.persist(e.addr, e.count)
		r.hbm.Write(e.addr, rcUpdateBytes, nil)
	}
	r.entries = r.entries[:0]
}
