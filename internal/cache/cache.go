// Package cache implements the on-die SRAM cache hierarchy: private L1
// and L2 per core and a shared L3, all set-associative, write-back,
// write-allocate with true-LRU replacement (Table I).
package cache

import (
	"fmt"

	"redcache/internal/config"
	"redcache/internal/mem"
	"redcache/internal/stats"
)

//redvet:state
type line struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU timestamp
}

// Cache is one set-associative cache structure for 64 B blocks.
type Cache struct {
	sets    [][]line
	setMask uint64
	ways    int
	tick    uint64
	Stats   stats.CacheStats
}

// Eviction describes a victim block pushed out by a fill.  It is
// passed by value with a Valid flag (rather than a nil-able pointer) so
// the per-eviction heap allocation disappears from the access path —
// evictions are steady-state events, not warm-up.
type Eviction struct {
	Block mem.BlockID
	Dirty bool
	// Valid is false when the fill found a free way (no victim).
	Valid bool
}

// New builds a cache from a config level description.
func New(lv config.CacheLevel) *Cache {
	if err := lv.Validate(); err != nil {
		panic(fmt.Sprintf("cache: %v", err))
	}
	nsets := lv.Sets()
	c := &Cache{
		sets:    make([][]line, nsets),
		setMask: uint64(nsets - 1),
		ways:    lv.Ways,
	}
	storage := make([]line, nsets*int64(lv.Ways))
	for i := range c.sets {
		c.sets[i], storage = storage[:lv.Ways], storage[lv.Ways:]
	}
	return c
}

//redvet:hotpath
func (c *Cache) set(b mem.BlockID) []line { return c.sets[uint64(b)&c.setMask] }

// Lookup probes for the block without changing replacement or hit/miss
// statistics.  It reports presence and dirtiness.
//
//redvet:hotpath
func (c *Cache) Lookup(b mem.BlockID) (present, dirty bool) {
	tag := uint64(b)
	for i := range c.set(b) {
		l := &c.set(b)[i]
		if l.valid && l.tag == tag {
			return true, l.dirty
		}
	}
	return false, false
}

// Access performs a demand access.  On a hit it updates LRU (and the
// dirty bit for writes) and returns hit=true.  On a miss it allocates the
// block, possibly returning the evicted victim; the caller is responsible
// for propagating dirty victims down the hierarchy.
//
//redvet:hotpath
func (c *Cache) Access(b mem.BlockID, write bool) (hit bool, ev Eviction) {
	c.tick++
	tag := uint64(b)
	set := c.set(b)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.used = c.tick
			if write {
				l.dirty = true
			}
			c.Stats.Hits++
			return true, Eviction{}
		}
	}
	c.Stats.Misses++
	ev = c.fill(b, write)
	return false, ev
}

// Fill installs the block (clean unless dirty is set) without counting a
// demand access; used when a lower level supplies data upward.
//
//redvet:hotpath
func (c *Cache) Fill(b mem.BlockID, dirty bool) Eviction {
	c.tick++
	tag := uint64(b)
	set := c.set(b)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.used = c.tick
			l.dirty = l.dirty || dirty
			return Eviction{}
		}
	}
	return c.fill(b, dirty)
}

//redvet:hotpath
func (c *Cache) fill(b mem.BlockID, dirty bool) Eviction {
	set := c.set(b)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto install
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
install:
	var ev Eviction
	l := &set[victim]
	if l.valid {
		c.Stats.Evictions++
		if l.dirty {
			c.Stats.DirtyEvicts++
		}
		ev = Eviction{Block: mem.BlockID(l.tag), Dirty: l.dirty, Valid: true}
	}
	l.tag = uint64(b)
	l.valid = true
	l.dirty = dirty
	l.used = c.tick
	return ev
}

// Invalidate drops the block if present, returning whether it was dirty.
func (c *Cache) Invalidate(b mem.BlockID) (present, dirty bool) {
	tag := uint64(b)
	set := c.set(b)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.valid = false
			return true, l.dirty
		}
	}
	return false, false
}

// Occupancy reports the number of valid lines (for tests).
func (c *Cache) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hierarchy levels; Memory means the access missed all on-die caches.
const (
	Memory Level = iota
	L1
	L2
	L3
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	default:
		return "MEM"
	}
}

// Hierarchy wires per-core L1/L2 over a shared L3 with NINE (non-
// inclusive, non-exclusive) semantics: fills propagate upward, dirty
// evictions cascade downward, and L3 dirty evictions surface as memory
// writebacks through the Writeback callback.
type Hierarchy struct {
	l1, l2           []*Cache
	l3               *Cache
	lat1, lat2, lat3 int64

	// Writeback receives dirty L3 victims (the "write" requests the
	// DRAM-cache controllers see).
	Writeback func(b mem.BlockID)
}

// NewHierarchy builds the cache stack for n cores.
func NewHierarchy(n int, l1, l2, l3 config.CacheLevel) *Hierarchy {
	h := &Hierarchy{
		l3:   New(l3),
		lat1: l1.LatencyCy, lat2: l2.LatencyCy, lat3: l3.LatencyCy,
	}
	for i := 0; i < n; i++ {
		h.l1 = append(h.l1, New(l1))
		h.l2 = append(h.l2, New(l2))
	}
	return h
}

// L1Stats exposes a core's L1 statistics.
func (h *Hierarchy) L1Stats(core int) *stats.CacheStats { return &h.l1[core].Stats }

// L2Stats exposes a core's L2 statistics.
func (h *Hierarchy) L2Stats(core int) *stats.CacheStats { return &h.l2[core].Stats }

// L3Stats exposes the shared L3 statistics.
func (h *Hierarchy) L3Stats() *stats.CacheStats { return &h.l3.Stats }

// Access runs one demand access from a core through the hierarchy.  It
// returns the satisfying level and the on-die latency.  When the result
// is Memory the caller must fetch the block; the line has already been
// allocated at every level (immediate-fill simplification, DESIGN.md §5).
//
//redvet:hotpath
func (h *Hierarchy) Access(core int, addr mem.Addr, write bool) (Level, int64) {
	b := addr.Block()
	hit, ev := h.l1[core].Access(b, write)
	if ev.Valid && ev.Dirty {
		h.toL2(core, ev.Block)
	}
	if hit {
		return L1, h.lat1
	}
	hit, ev = h.l2[core].Access(b, false)
	if ev.Valid && ev.Dirty {
		h.toL3(ev.Block)
	}
	if hit {
		return L2, h.lat1 + h.lat2
	}
	hit, ev = h.l3.Access(b, false)
	if ev.Valid && ev.Dirty {
		h.writeback(ev.Block)
	}
	if hit {
		return L3, h.lat1 + h.lat2 + h.lat3
	}
	return Memory, h.lat1 + h.lat2 + h.lat3
}

// toL2 installs a dirty L1 victim into the core's L2.
//
//redvet:hotpath
func (h *Hierarchy) toL2(core int, b mem.BlockID) {
	if ev := h.l2[core].Fill(b, true); ev.Valid && ev.Dirty {
		h.toL3(ev.Block)
	}
}

// toL3 installs a dirty L2 victim into the shared L3.
//
//redvet:hotpath
func (h *Hierarchy) toL3(b mem.BlockID) {
	if ev := h.l3.Fill(b, true); ev.Valid && ev.Dirty {
		h.writeback(ev.Block)
	}
}

//redvet:hotpath
func (h *Hierarchy) writeback(b mem.BlockID) {
	if h.Writeback != nil {
		h.Writeback(b)
	}
}
