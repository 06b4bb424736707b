package dram

import (
	"math/bits"
)

// rowQueue is one of a channel's two FR-FCFS transaction queues (reads
// and prioritized writes, or posted writes), indexed so the scheduler
// finds the oldest row hit in O(banks) instead of scanning the queue.
//
// Queued transactions sit on two intrusive lists threaded through the
// Txn itself:
//
//   - the queue-order list (prev/next), oldest first, which the
//     no-row-hit fallback scans and the checkpoint codec serializes;
//   - one FIFO per (rank, bank, row) (rowNext), oldest first, held in
//     an open-addressed table keyed by row<<bankBits | bank.
//
// hit[b] is the table slot of the FIFO for bank b's open row, or -1
// when that bank has no row open or no queued transaction to it;
// hitMask has bit b set exactly when hit[b] >= 0.  The oldest row hit
// is the lowest-seq head among the hit FIFOs (seq is the push order,
// and removal never reorders the rest).
//
// Every removal is a FIFO head pop: on a row hit the scheduler picks a
// head by construction, and without row hits every transaction to one
// (bank, row) has the same readyAt, so the lowest-index tie-break in
// the fallback scan picks the head too.  Removal is O(1) on both lists.
//
//redvet:state
type rowQueue struct {
	head, tail *Txn
	n          int
	seq        uint64 // push order of the next transaction

	slots []rowFIFO // linear probing; len is a power of two
	used  int       // occupied slots
	shift uint      // 64 - log2(len(slots)), for Fibonacci hashing

	hit          []int32
	hitMask      []uint64
	bankBits     uint // log2(banks per channel)
	banksPerRank int
}

// rowFIFO is a queue's FIFO of transactions to one (rank, bank, row),
// linked through Txn.rowNext.  A slot with a nil head is empty.
//
//redvet:state
type rowFIFO struct {
	key        uint64
	head, tail *Txn
}

const minSlots = 16

// init sizes the per-bank state; the FIFO table starts small and grows
// with the number of distinct rows queued at once.
func (q *rowQueue) init(banksPerChan, banksPerRank int) {
	q.bankBits = uint(log2(banksPerChan))
	q.banksPerRank = banksPerRank
	q.hit = make([]int32, banksPerChan)
	q.hitMask = make([]uint64, (banksPerChan+63)/64)
	q.slots = make([]rowFIFO, minSlots)
	q.shift = 64 - uint(log2(minSlots))
	q.clearHits()
}

//redvet:hotpath
func (q *rowQueue) len() int { return q.n }

// bankOf is l's bank index within its channel.
//
//redvet:hotpath
func (q *rowQueue) bankOf(l Location) int { return l.Rank*q.banksPerRank + l.Bank }

//redvet:hotpath
func (q *rowQueue) key(b int, row int64) uint64 { return uint64(row)<<q.bankBits | uint64(b) }

//redvet:hotpath
func (q *rowQueue) home(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> q.shift) }

// find returns key's slot and whether it is occupied; an unoccupied
// result is the slot an insert would take.
//
//redvet:hotpath
func (q *rowQueue) find(key uint64) (int, bool) {
	mask := len(q.slots) - 1
	for i := q.home(key); ; i = (i + 1) & mask {
		s := &q.slots[i]
		if s.head == nil {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

//redvet:hotpath
func (q *rowQueue) setHit(b, slot int) {
	q.hit[b] = int32(slot)
	q.hitMask[b>>6] |= 1 << (b & 63)
}

//redvet:hotpath
func (q *rowQueue) clearHit(b int) {
	q.hit[b] = -1
	q.hitMask[b>>6] &^= 1 << (b & 63)
}

// clearHits forgets every open row (refresh closes them all).
//
//redvet:hotpath
func (q *rowQueue) clearHits() {
	for b := range q.hit {
		q.hit[b] = -1
	}
	for w := range q.hitMask {
		q.hitMask[w] = 0
	}
}

// rowOpened points bank b's hit at the FIFO for its newly opened row.
//
//redvet:hotpath
func (q *rowQueue) rowOpened(b int, row int64) {
	if s, ok := q.find(q.key(b, row)); ok {
		q.setHit(b, s)
	} else {
		q.clearHit(b)
	}
}

// push appends t to the queue and to its row's FIFO.  openRow is the
// row currently open in t's bank (-1 when closed): a new FIFO for it
// becomes the bank's hit.
//
//redvet:hotpath
func (q *rowQueue) push(t *Txn, openRow int64) {
	t.seq = q.seq
	q.seq++
	t.prev = q.tail
	if q.tail != nil {
		q.tail.next = t
	} else {
		q.head = t
	}
	q.tail = t
	q.n++

	if 4*(q.used+1) > 3*len(q.slots) {
		q.grow()
	}
	b := q.bankOf(t.Loc)
	key := q.key(b, t.Loc.Row)
	s, ok := q.find(key)
	f := &q.slots[s]
	if ok {
		f.tail.rowNext = t
		f.tail = t
		return
	}
	*f = rowFIFO{key: key, head: t, tail: t}
	q.used++
	if t.Loc.Row == openRow {
		q.setHit(b, s)
	}
}

// grow doubles the FIFO table and rehashes it, re-pointing the hits.
//
//redvet:coldstart — amortized table growth up to the distinct-row high-water mark
func (q *rowQueue) grow() {
	old := q.slots
	q.slots = make([]rowFIFO, 2*len(old))
	q.shift--
	for i := range old {
		if old[i].head != nil {
			s, _ := q.find(old[i].key)
			q.slots[s] = old[i]
		}
	}
	for b, s := range q.hit {
		if s >= 0 {
			ns, _ := q.find(old[s].key)
			q.hit[b] = int32(ns)
		}
	}
}

// oldestHit returns the slot of the row-hit FIFO whose head is the
// oldest queued row hit, or -1 when no queued transaction hits an open
// row.
//
//redvet:hotpath
func (q *rowQueue) oldestHit() int {
	best, bestSeq := -1, uint64(0)
	for w, word := range q.hitMask {
		for word != 0 {
			b := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			s := int(q.hit[b])
			if seq := q.slots[s].head.seq; best < 0 || seq < bestSeq {
				best, bestSeq = s, seq
			}
		}
	}
	return best
}

// slotOf returns the slot of t's row FIFO, panicking unless t is that
// FIFO's head: the scheduler only ever removes FIFO heads.
//
//redvet:hotpath
func (q *rowQueue) slotOf(t *Txn) int {
	s, ok := q.find(q.key(q.bankOf(t.Loc), t.Loc.Row))
	if !ok || q.slots[s].head != t {
		panic("dram: FR-FCFS picked a transaction that is not the head of its row FIFO")
	}
	return s
}

// pop removes and returns the head of the FIFO in slot s.
//
//redvet:hotpath
func (q *rowQueue) pop(s int) *Txn {
	f := &q.slots[s]
	t := f.head
	f.head = t.rowNext
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		q.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		q.tail = t.prev
	}
	t.prev, t.next, t.rowNext = nil, nil, nil
	q.n--
	if f.head == nil {
		q.remove(s)
	}
	return t
}

// remove frees slot s (whose FIFO just emptied) by backward-shift
// deletion, so probe chains never hold tombstones.
//
//redvet:hotpath
func (q *rowQueue) remove(s int) {
	mask := len(q.slots) - 1
	bankMask := uint64(1)<<q.bankBits - 1
	if b := int(q.slots[s].key & bankMask); q.hit[b] == int32(s) {
		q.clearHit(b)
	}
	for j := (s + 1) & mask; q.slots[j].head != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at s only if s lies on its
		// probe path, i.e. s is no farther from j than j's home is.
		if (j-q.home(q.slots[j].key))&mask < (j-s)&mask {
			continue
		}
		q.slots[s] = q.slots[j]
		if b := int(q.slots[s].key & bankMask); q.hit[b] == int32(j) {
			q.hit[b] = int32(s)
		}
		s = j
	}
	q.slots[s] = rowFIFO{}
	q.used--
}

// reset empties the queue (checkpoint restore refills it), keeping the
// table's capacity.
func (q *rowQueue) reset() {
	_, _, _ = q.shift, q.bankBits, q.banksPerRank // capacity and geometry survive
	q.head, q.tail, q.n, q.seq, q.used = nil, nil, 0, 0, 0
	for i := range q.slots {
		q.slots[i] = rowFIFO{}
	}
	q.clearHits()
}
