// Package mem defines the physical-memory vocabulary shared by every
// component of the simulator: byte addresses, 64 B cache blocks, 4 KB OS
// pages, and memory requests.
package mem

import "fmt"

// Fixed layout constants.  The paper's whole design is phrased in terms
// of 64 B blocks and 4 KB pages (§III-A); these are compile-time fixed.
const (
	BlockShift = 6
	BlockSize  = 1 << BlockShift // 64 B cache block
	PageShift  = 12
	PageSize   = 1 << PageShift // 4 KB OS page
	// BlocksPerPage is the α-count sharing factor (64, §III-A-1).
	BlocksPerPage = PageSize / BlockSize
)

// Addr is a physical byte address.
type Addr uint64

// BlockID identifies a 64 B block (address >> 6).
type BlockID uint64

// PageID identifies a 4 KB page (address >> 12).
type PageID uint64

// Block returns the block containing a.
func (a Addr) Block() BlockID { return BlockID(a >> BlockShift) }

// Page returns the page containing a.
func (a Addr) Page() PageID { return PageID(a >> PageShift) }

// BlockAligned reports whether a is 64 B aligned.
func (a Addr) BlockAligned() bool { return a&(BlockSize-1) == 0 }

// Align returns a rounded down to its block boundary.
func (a Addr) Align() Addr { return a &^ (BlockSize - 1) }

// Addr returns the first byte address of the block.
func (b BlockID) Addr() Addr { return Addr(b) << BlockShift }

// Page returns the page containing block b.
func (b BlockID) Page() PageID { return PageID(b >> (PageShift - BlockShift)) }

// Addr returns the first byte address of the page.
func (p PageID) Addr() Addr { return Addr(p) << PageShift }

// AccessType distinguishes reads from writes.
type AccessType uint8

const (
	Read AccessType = iota
	Write
)

// String implements fmt.Stringer.
func (t AccessType) String() string {
	switch t {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(t))
	}
}

// IsWrite is a convenience predicate.
func (t AccessType) IsWrite() bool { return t == Write }

// Request is a memory request as seen below the L3: a demand read (an L3
// load miss that a core is waiting on) or a writeback (an evicted dirty
// L3 line).  The DRAM-cache controllers in internal/hbm consume these.
//
// Ownership ends at Submit: a controller reads the fields and detaches
// Done with TakeDone while Submit runs, and holds no pointer to the
// Request once Submit returns.  Callers may therefore embed or reuse a
// single Request (the CPU model sends every L3 writeback through one).
type Request struct {
	Addr   Addr
	Type   AccessType
	Core   int   // issuing core, -1 for system-generated traffic
	Issued int64 // cycle the request entered the memory subsystem
	// Done, when non-nil, is invoked exactly once with the completion
	// cycle.  For writes "completion" means acceptance by the memory
	// system (posted-write semantics).
	Done func(finish int64)
}

// TakeDone detaches and returns the completion callback (possibly nil).
// Handing the raw func to a scheduler instead of wrapping r.Complete in
// a fresh closure keeps controller hot paths allocation-free; the
// exactly-once obligation transfers to the caller along with the func.
//
//redvet:hotpath
func (r *Request) TakeDone() func(finish int64) {
	done := r.Done
	r.Done = nil
	return done
}

// Complete invokes Done if set.  Controllers must call it exactly once.
//
//redvet:hotpath
func (r *Request) Complete(finish int64) {
	if r.Done != nil {
		done := r.Done
		r.Done = nil
		done(finish)
	}
}

// String implements fmt.Stringer for debugging.
func (r *Request) String() string {
	return fmt.Sprintf("%s@%#x core=%d t=%d", r.Type, uint64(r.Addr), r.Core, r.Issued)
}
