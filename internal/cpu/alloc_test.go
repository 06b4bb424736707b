//go:build !race

package cpu

import (
	"testing"

	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/trace"
)

// lastMem is a Submitter that keeps a copy of the last request and
// nothing else, so it adds no allocation of its own.
type lastMem struct{ last mem.Request }

func (m *lastMem) Submit(req *mem.Request) { m.last = *req }

// TestWritebackZeroAlloc pins the L3 writeback path at 0 allocs/op: every
// dirty eviction travels in the Complex's one reused request.  (Race
// instrumentation perturbs allocation accounting; the guard is compiled
// out under -race.)
func TestWritebackZeroAlloc(t *testing.T) {
	eng := engine.New()
	ms := &lastMem{}
	cx := NewComplex(eng, testCfg(1), &trace.Trace{Streams: []trace.Stream{nil}}, ms)
	blk := mem.BlockID(0)
	wb := func() {
		blk++
		cx.Hier.Writeback(blk)
	}
	wb()
	if allocs := testing.AllocsPerRun(1000, wb); allocs != 0 {
		t.Fatalf("Hier.Writeback allocated %.1f allocs/op, want 0", allocs)
	}
	want := mem.Request{Addr: blk.Addr(), Type: mem.Write, Core: -1, Issued: eng.Now()}
	if ms.last.Addr != want.Addr || ms.last.Type != want.Type ||
		ms.last.Core != want.Core || ms.last.Issued != want.Issued || ms.last.Done != nil {
		t.Fatalf("last writeback = %v, want %v", &ms.last, &want)
	}
}
