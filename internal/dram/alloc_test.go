//go:build !race

package dram

import (
	"testing"

	"redcache/internal/engine"
	"redcache/internal/stats"
)

// TestEnqueueDrainZeroAlloc pins the DRAM hot path — Read enqueue,
// FR-FCFS scheduling, issue, completion — at 0 allocs/op once the Txn
// pool, queues, row index and engine heap are warm, for a shallow
// row-hit stream and for a deep row-scattered write queue (so the row
// index grows only on a cold start).  (Race instrumentation perturbs
// allocation accounting; compiled out under -race.)
func TestEnqueueDrainZeroAlloc(t *testing.T) {
	eng := engine.New()
	iface := &stats.Interface{Name: "test"}
	c := NewController(eng, testDRAM(4), iface)
	noop := func(int64) {}
	// Warm up: a mixed burst grows the pool, rings and heap past any
	// capacity the measured loop needs.
	for i := 0; i < 256; i++ {
		c.Read(rowAddr(c, int64(i%4), int64(i%2), int64(i%32)), 64, noop)
	}
	eng.Run()
	if allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 32; j++ {
			c.Read(rowAddr(c, 0, 0, int64(j)), 64, noop)
		}
		eng.Run()
	}); allocs != 0 {
		t.Fatalf("enqueue+drain allocated %.1f allocs/op, want 0", allocs)
	}

	deep := NewController(eng, testDRAM(8), iface)
	enqueueDeep(deep, noop)
	eng.Run()
	if allocs := testing.AllocsPerRun(5, func() {
		enqueueDeep(deep, noop)
		eng.Run()
	}); allocs != 0 {
		t.Fatalf("deep enqueue+drain allocated %.1f allocs/op, want 0", allocs)
	}
}
