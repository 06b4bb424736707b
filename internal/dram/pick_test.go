package dram

import (
	"math/rand"
	"strings"
	"testing"

	"redcache/internal/config"
	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/stats"
)

// scanPick is the reference FR-FCFS pick the row index replaced: a
// linear scan for the oldest row hit, then the earliest-ready of the
// oldest pickScan entries (lowest index on a tie).
func scanPick(c *Controller, ch *channel, q *rowQueue, buf []*Txn) *Txn {
	queue := buf[:0]
	for t := q.head; t != nil; t = t.next {
		queue = append(queue, t)
	}
	for _, t := range queue {
		if ch.ranks[t.Loc.Rank].banks[t.Loc.Bank].openRow == t.Loc.Row {
			return t
		}
	}
	best, bestAt := 0, int64(1)<<62
	for i := 0; i < len(queue) && i < pickScan; i++ {
		if at := c.readyAt(ch, queue[i]); at < bestAt {
			best, bestAt = i, at
		}
	}
	return queue[best]
}

// deepDRAM is a two-channel, 16-banks-per-channel device with Table I
// HBM timings and a short refresh interval, so refreshes land while
// the queues are deep.
func deepDRAM() config.DRAM {
	tm := config.PaperHBMTiming()
	tm.TREFI = 4000
	return config.DRAM{
		Name: "deep",
		Geometry: config.DRAMGeometry{Channels: 2, RanksPerChan: 2,
			BanksPerRank: 8, RowBytes: 2048, BusBytes: 16, CapacityB: 1 << 30},
		Timing: tm,
	}
}

// chanAddr returns an address on the deep device's channel ch, bank
// index b within the channel, row and column.
func chanAddr(c *Controller, ch, b, row, col int64) mem.Addr {
	blocksPerRow := int64(2048 / 64)
	blk := ((row*int64(c.banksPerChan)+b)*blocksPerRow+col)*int64(len(c.chans)) + ch
	return mem.Addr(blk << mem.BlockShift)
}

// TestIndexedPickMatchesScan drives seeded random enqueue bursts
// through the scheduler one engine event at a time and, before every
// event, asserts that the indexed pick of both queues of every channel
// is the transaction the reference scan picks.
func TestIndexedPickMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := engine.New()
		iface := &stats.Interface{Name: "deep"}
		c := NewController(eng, deepDRAM(), iface)
		noop := func(int64) {}
		buf := make([]*Txn, 0, 8192)

		var (
			decisions, hitPicks, scanPicks int
			maxDepth, drainToggles         int
			busyRefreshes                  int64
			prevDrain                      = [2]bool{}
		)
		check := func() {
			for i := range c.chans {
				ch := &c.chans[i]
				for _, q := range [2]*rowQueue{&ch.rdq, &ch.wrq} {
					if q.len() == 0 {
						continue
					}
					maxDepth = max(maxDepth, q.len())
					want := scanPick(c, ch, q, buf)
					if q.oldestHit() >= 0 {
						hitPicks++
					} else {
						scanPicks++
					}
					if got := q.slots[c.pickFrom(ch, q)].head; got != want {
						t.Fatalf("seed %d cycle %d channel %d: indexed pick %#x (seq %d), scan pick %#x (seq %d)",
							seed, eng.Now(), i, got.Addr, got.seq, want.Addr, want.seq)
					}
					decisions++
				}
				if ch.drainWr != prevDrain[i] {
					drainToggles++
					prevDrain[i] = ch.drainWr
				}
			}
		}

		for burst := 0; burst < 9; burst++ {
			// Every third burst is deep and lands on channel 0; rows are
			// drawn from a wide range so each bank carries many rows.
			n, chans := 40+rng.Intn(200), 2
			if burst%3 == 0 {
				n, chans = 3600, 1
			}
			for i := 0; i < n; i++ {
				addr := chanAddr(c, int64(rng.Intn(chans)), int64(rng.Intn(16)),
					int64(rng.Intn(48)), int64(rng.Intn(32)))
				switch k := rng.Intn(10); {
				case k < 6:
					c.Write(addr, mem.BlockSize, nil)
				case k < 9:
					c.Read(addr, mem.BlockSize, noop)
				default:
					c.WritePriority(addr, 8, noop)
				}
			}
			steps := 1500 + rng.Intn(3000)
			for s := 0; s < steps; s++ {
				check()
				refreshes := iface.Refreshes
				if !eng.Step() {
					break
				}
				if iface.Refreshes > refreshes && c.TotalQueued() > 0 {
					busyRefreshes++
				}
				if s%257 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("seed %d cycle %d: %v", seed, eng.Now(), err)
					}
				}
			}
		}
		for {
			check()
			if !eng.Step() {
				break
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if c.TotalQueued() != 0 {
			t.Fatalf("seed %d: %d transactions left queued", seed, c.TotalQueued())
		}
		t.Logf("seed %d: %d decisions (%d row-hit, %d scan), max depth %d, %d drain toggles, %d refreshes under load",
			seed, decisions, hitPicks, scanPicks, maxDepth, drainToggles, busyRefreshes)
		if maxDepth < 2000 || hitPicks == 0 || scanPicks == 0 || drainToggles == 0 || busyRefreshes == 0 {
			t.Fatalf("seed %d: sequence does not cover deep queues, both pick paths, write drain and refresh", seed)
		}
	}
}

// TestInvariantsCatchIndexCorruption breaks one link of the row index
// at a time and expects CheckInvariants to report it.
func TestInvariantsCatchIndexCorruption(t *testing.T) {
	build := func() (*Controller, *channel) {
		c := NewController(engine.New(), testDRAM(4), &stats.Interface{Name: "test"})
		for i := 0; i < 24; i++ {
			c.Write(rowAddr(c, int64(i%2), int64(i%3), int64(i)), mem.BlockSize, nil)
			c.Read(rowAddr(c, 2, int64(i%2), int64(i)), mem.BlockSize, func(int64) {})
		}
		ch := &c.chans[0]
		ch.ranks[0].banks[0].openRow = 1
		ch.rowOpened(0, 1)
		ch.ranks[0].banks[2].openRow = 0
		ch.rowOpened(2, 0)
		return c, ch
	}
	if c, _ := build(); c.CheckInvariants() != nil {
		t.Fatalf("clean state rejected: %v", c.CheckInvariants())
	}
	firstFIFO := func(q *rowQueue) *rowFIFO {
		for s := range q.slots {
			if q.slots[s].head != nil && q.slots[s].head.rowNext != nil {
				return &q.slots[s]
			}
		}
		t.Fatal("no multi-entry FIFO")
		return nil
	}
	cases := []struct {
		name    string
		corrupt func(ch *channel)
		want    string
	}{
		{"truncated FIFO", func(ch *channel) {
			f := firstFIFO(&ch.wrq)
			f.head.rowNext = nil
			f.tail = f.head
		}, "row FIFOs hold"},
		{"FIFO out of order", func(ch *channel) {
			f := firstFIFO(&ch.wrq)
			a, b := f.head, f.head.rowNext
			a.rowNext, b.rowNext, f.head = b.rowNext, a, b
		}, "out of queue order"},
		{"empty FIFO", func(ch *channel) {
			f := firstFIFO(&ch.rdq)
			f.head.rowNext = nil
			f.head = nil
		}, "has a tail"},
		{"stale hit", func(ch *channel) { ch.wrq.clearHit(0) }, "bank 0 hit"},
		{"hit mask", func(ch *channel) { ch.rdq.hitMask[0] &^= 1 << 2 }, "hit mask"},
		{"queue back link", func(ch *channel) { ch.rdq.tail.prev = nil }, "back link"},
	}
	for _, tc := range cases {
		c, ch := build()
		tc.corrupt(ch)
		err := c.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
