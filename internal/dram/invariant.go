package dram

import "fmt"

// CheckInvariants validates the controller's internal state: queue-list
// and row-index integrity, FR-FCFS occupancy bounds, the write-drain
// budget, and bus timeline consistency.  It is the dram leg of the
// opt-in online invariant checker (`redsim -invariants`); it allocates
// freely and must never run on the steady-state path.
func (c *Controller) CheckInvariants() error {
	for i := range c.chans {
		ch := &c.chans[i]
		if err := ch.rdq.check(ch, i); err != nil {
			return fmt.Errorf("dram: channel %d read queue: %w", i, err)
		}
		if err := ch.wrq.check(ch, i); err != nil {
			return fmt.Errorf("dram: channel %d write queue: %w", i, err)
		}
		if total := ch.rdq.len() + ch.wrq.len(); total > c.MaxQueue {
			return fmt.Errorf("dram: channel %d holds %d transactions, above MaxQueue %d",
				i, total, c.MaxQueue)
		}
		// drainBudget may go negative (the rdq-empty path serves writes
		// during a drain without consuming budget), but it can never
		// exceed one burst grant.
		if ch.drainBudget > wrBurst {
			return fmt.Errorf("dram: channel %d drain budget %d exceeds burst bound %d",
				i, ch.drainBudget, wrBurst)
		}
		if ch.busFreeAt < ch.lastDataEnd {
			return fmt.Errorf("dram: channel %d bus free at %d before last data end %d",
				i, ch.busFreeAt, ch.lastDataEnd)
		}
	}
	return nil
}

// check validates one queue of channel chIdx: the queue-order list,
// every (rank, bank, row) FIFO, and the per-bank hits (slot and head
// seq) against the banks' open rows.
func (q *rowQueue) check(ch *channel, chIdx int) error {
	// Queue-order list: linked both ways, push order strictly
	// increasing, arrivals non-decreasing (pushes happen in time order
	// and removal never reorders the rest).
	pos := make(map[*Txn]int, q.n)
	var prev *Txn
	for t := q.head; t != nil; t = t.next {
		j := len(pos)
		if j == q.n {
			return fmt.Errorf("queue list longer than its count %d", q.n)
		}
		if t.prev != prev {
			return fmt.Errorf("queue list back link broken at index %d", j)
		}
		if t.Loc.Channel != chIdx {
			return fmt.Errorf("index %d holds a transaction for channel %d", j, t.Loc.Channel)
		}
		if prev != nil && (t.seq <= prev.seq || t.Arrive < prev.Arrive) {
			return fmt.Errorf("queue order broken at index %d (seq %d after %d, arrival %d after %d)",
				j, t.seq, prev.seq, t.Arrive, prev.Arrive)
		}
		pos[t] = j
		prev = t
	}
	if len(pos) != q.n || q.tail != prev {
		return fmt.Errorf("queue list holds %d transactions (tail ok: %v), count says %d",
			len(pos), q.tail == prev, q.n)
	}

	// Row FIFOs: each reachable from its key's probe, non-empty, and
	// holding queued transactions to its own row in queue order; the
	// FIFOs together hold every queued transaction exactly once.
	if len(q.slots) == 0 || len(q.slots)&(len(q.slots)-1) != 0 {
		return fmt.Errorf("row table size %d is not a power of two", len(q.slots))
	}
	used, inFIFOs := 0, 0
	for s := range q.slots {
		f := &q.slots[s]
		if f.head == nil {
			if f.tail != nil {
				return fmt.Errorf("empty row slot %d has a tail", s)
			}
			continue
		}
		used++
		if got, ok := q.find(f.key); !ok || got != s {
			return fmt.Errorf("row slot %d (key %#x) is not where its probe finds it", s, f.key)
		}
		last, lastPos := (*Txn)(nil), -1
		for t := f.head; t != nil; t = t.rowNext {
			j, queued := pos[t]
			if !queued {
				return fmt.Errorf("row slot %d holds a transaction that is not queued", s)
			}
			if k := q.key(q.bankOf(t.Loc), t.Loc.Row); k != f.key {
				return fmt.Errorf("row slot %d (key %#x) holds a transaction for key %#x", s, f.key, k)
			}
			if j <= lastPos {
				return fmt.Errorf("row slot %d out of queue order (index %d after %d)", s, j, lastPos)
			}
			lastPos, last = j, t
			inFIFOs++
		}
		if f.tail != last {
			return fmt.Errorf("row slot %d tail is not its last transaction", s)
		}
	}
	if used != q.used {
		return fmt.Errorf("row table holds %d FIFOs, count says %d", used, q.used)
	}
	if inFIFOs != q.n {
		return fmt.Errorf("row FIFOs hold %d transactions, queue holds %d", inFIFOs, q.n)
	}

	// Hits: exactly the FIFO of each bank's open row.
	for r := range ch.ranks {
		for bi := range ch.ranks[r].banks {
			b := q.bankOf(Location{Rank: r, Bank: bi})
			want := -1
			if row := ch.ranks[r].banks[bi].openRow; row >= 0 {
				if s, ok := q.find(q.key(b, row)); ok {
					want = s
				}
			}
			if int(q.hit[b]) != want {
				return fmt.Errorf("bank %d hit is slot %d, want %d", b, q.hit[b], want)
			}
			if set := q.hitMask[b>>6]&(1<<(b&63)) != 0; set != (want >= 0) {
				return fmt.Errorf("bank %d hit mask bit is %v with hit slot %d", b, set, want)
			}
			if want >= 0 && q.hitSeq[b] != q.slots[want].head.seq {
				return fmt.Errorf("bank %d hit head seq is %d, FIFO head has %d", b, q.hitSeq[b], q.slots[want].head.seq)
			}
		}
	}
	return nil
}
