// Package trace defines the block-granular memory trace format the
// workload generators emit and the CPU model consumes, plus
// trace-analysis helpers (footprint, reuse CDF).
//
// A record is one memory operation preceded by a count of non-memory
// instructions ("gap"); the CPU model retires the gap at its issue width
// and then performs the access.  Traces are block-granular (64 B): the
// generators coalesce consecutive touches to the same block, which is
// the standard granularity for memory-system studies (DESIGN.md §2).
package trace

import (
	"fmt"

	"redcache/internal/mem"
)

// Record is one traced memory operation.  It holds the 64 B block
// index rather than the byte address: trace addresses are always block
// aligned, so the low six bits carry nothing, and a 32-bit index (256
// GiB of physical memory) packs the record into 8 bytes instead of 16.
type Record struct {
	Gap   uint16 // non-memory instructions before this access
	Write bool
	Block uint32 // 64 B block index (the address >> mem.BlockShift)
}

// maxAddr bounds the byte addresses a Record can hold: 2^32 blocks.
const maxAddr = mem.Addr(1) << (32 + mem.BlockShift)

// Addr returns the block-aligned byte address of the access.
//
//redvet:hotpath
func (r Record) Addr() mem.Addr { return mem.BlockID(r.Block).Addr() }

// Stream is one core's trace.
type Stream []Record

// Trace is a complete parallel-program trace, one stream per core.
type Trace struct {
	Name    string
	Streams []Stream
}

// Cores reports the number of per-core streams.
func (t *Trace) Cores() int { return len(t.Streams) }

// Records reports the total number of records across all streams.
func (t *Trace) Records() int {
	n := 0
	for _, s := range t.Streams {
		n += len(s)
	}
	return n
}

// Footprint reports the number of distinct 64 B blocks touched.
func (t *Trace) Footprint() int {
	seen := make(map[mem.BlockID]struct{})
	for _, s := range t.Streams {
		for _, r := range s {
			seen[mem.BlockID(r.Block)] = struct{}{}
		}
	}
	return len(seen)
}

// FootprintBytes is Footprint() in bytes.
func (t *Trace) FootprintBytes() int64 { return int64(t.Footprint()) * mem.BlockSize }

// WriteShare reports the fraction of records that are writes.
func (t *Trace) WriteShare() float64 {
	var w, n int
	for _, s := range t.Streams {
		for _, r := range s {
			n++
			if r.Write {
				w++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(w) / float64(n)
}

// ReuseCounts returns accesses per distinct block.
func (t *Trace) ReuseCounts() map[mem.BlockID]int {
	m := make(map[mem.BlockID]int)
	for _, s := range t.Streams {
		for _, r := range s {
			m[mem.BlockID(r.Block)]++
		}
	}
	return m
}

// Builder accumulates a per-core stream with gap tracking and
// consecutive-same-block coalescing.
type Builder struct {
	stream    Stream
	gap       uint32
	lastBlock uint32
	lastValid bool
	lastWrite bool
}

// Work adds n non-memory instructions before the next access.
func (b *Builder) Work(n int) { b.gap += uint32(n) }

// Load records a read of addr.
func (b *Builder) Load(addr mem.Addr) { b.access(addr, false) }

// Store records a write of addr.
func (b *Builder) Store(addr mem.Addr) { b.access(addr, true) }

func (b *Builder) access(addr mem.Addr, write bool) {
	if addr >= maxAddr {
		panic(fmt.Sprintf("trace: address %#x is beyond the 256 GiB a record can hold", uint64(addr)))
	}
	blk := uint32(addr.Block())
	// Coalesce immediate same-block repetitions (they would hit L1
	// anyway); a write upgrades the coalesced record.
	if b.lastValid && blk == b.lastBlock && b.gap == 0 {
		if write && !b.lastWrite {
			b.stream[len(b.stream)-1].Write = true
			b.lastWrite = true
		}
		return
	}
	for b.gap > 0 {
		g := b.gap
		if g > 65535 {
			// Split oversized gaps into empty-gap filler on the same
			// block; cap keeps Record compact.
			g = 65535
		}
		b.gap -= g
		if b.gap > 0 {
			// Emit an extra read to carry the overflow gap.
			b.stream = append(b.stream, Record{Gap: uint16(g), Block: blk})
			continue
		}
		b.stream = append(b.stream, Record{Gap: uint16(g), Write: write, Block: blk})
		b.lastBlock, b.lastValid, b.lastWrite = blk, true, write
		return
	}
	b.stream = append(b.stream, Record{Write: write, Block: blk})
	b.lastBlock, b.lastValid, b.lastWrite = blk, true, write
}

// Stream returns the built stream.
func (b *Builder) Stream() Stream { return b.stream }

// Len reports the number of records built so far.
func (b *Builder) Len() int { return len(b.stream) }
