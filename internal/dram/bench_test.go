package dram

import (
	"testing"

	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/stats"
)

// BenchmarkDRAMRowHitStream measures the FR-FCFS fast path: a stream of
// reads hitting one open row, enqueued in batches and drained by the
// engine.  One op is one transaction end to end (enqueue, schedule,
// issue, completion callback).
func BenchmarkDRAMRowHitStream(b *testing.B) {
	eng := engine.New()
	iface := &stats.Interface{Name: "bench"}
	c := NewController(eng, testDRAM(4), iface)
	noop := func(int64) {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 256
	for n := 0; n < b.N; {
		m := batch
		if rem := b.N - n; rem < m {
			m = rem
		}
		for j := 0; j < m; j++ {
			c.Read(rowAddr(c, 0, 0, int64(j%32)), 64, noop)
		}
		eng.Run()
		n += m
	}
}

// BenchmarkDRAMMixedStream stresses the scheduler's decision path:
// reads and posted writes across banks, exercising write-drain
// watermarks, bus turnaround, and the FR-FCFS pick.
func BenchmarkDRAMMixedStream(b *testing.B) {
	eng := engine.New()
	iface := &stats.Interface{Name: "bench"}
	c := NewController(eng, testDRAM(8), iface)
	noop := func(int64) {}
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 256
	for n := 0; n < b.N; {
		m := batch
		if rem := b.N - n; rem < m {
			m = rem
		}
		for j := 0; j < m; j++ {
			addr := rowAddr(c, int64(j%8), int64(j%4), int64(j%32))
			if j%3 == 0 {
				c.Write(addr, mem.BlockSize, nil)
			} else {
				c.Read(addr, mem.BlockSize, noop)
			}
		}
		eng.Run()
		n += m
	}
}

// deepBatch is the fill-stream shape: a burst of posted writes (with
// one demand read in eight) scattered over 64 rows of every bank of an
// eight-bank channel, so the write queue runs thousands deep with many
// distinct rows per bank.
const deepBatch = 4096

// enqueueDeep enqueues one deep batch.  The address sequence is a fixed
// LCG walk, so every batch touches the same (bank, row) set and warm
// capacities cover the next one.
func enqueueDeep(c *Controller, noop func(int64)) {
	x := uint64(1)
	for j := 0; j < deepBatch; j++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := rowAddr(c, int64(x>>60&7), int64(x>>40&63), int64(x>>20&31))
		if j%8 == 7 {
			c.Read(addr, mem.BlockSize, noop)
		} else {
			c.Write(addr, mem.BlockSize, nil)
		}
	}
}

// BenchmarkDRAMDeepWriteQueue measures scheduling against a deep,
// row-scattered write queue: every decision must find the oldest row
// hit among thousands of queued writes.  One op is one transaction end
// to end (b.N rounds up to whole batches); the first batch runs before
// the timer to warm the pools, queues and row index.
func BenchmarkDRAMDeepWriteQueue(b *testing.B) {
	eng := engine.New()
	iface := &stats.Interface{Name: "bench"}
	c := NewController(eng, testDRAM(8), iface)
	noop := func(int64) {}
	enqueueDeep(c, noop)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += deepBatch {
		enqueueDeep(c, noop)
		eng.Run()
	}
}
