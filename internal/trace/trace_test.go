package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"redcache/internal/mem"
)

func TestBuilderCoalescesSameBlock(t *testing.T) {
	var b Builder
	b.Load(100) // block 1
	b.Load(108) // same block, gap 0 -> coalesce
	b.Load(120) // still block 1
	if b.Len() != 1 {
		t.Fatalf("records = %d, want 1", b.Len())
	}
	b.Load(200) // block 3
	if b.Len() != 2 {
		t.Fatalf("records = %d, want 2", b.Len())
	}
}

func TestBuilderWriteUpgrade(t *testing.T) {
	var b Builder
	b.Load(64)
	b.Store(70) // same block: upgrade to write
	s := b.Stream()
	if len(s) != 1 || !s[0].Write {
		t.Fatalf("expected single write-upgraded record, got %+v", s)
	}
}

func TestBuilderGapBreaksCoalescing(t *testing.T) {
	var b Builder
	b.Load(64)
	b.Work(5)
	b.Load(64)
	if b.Len() != 2 {
		t.Fatalf("records = %d, want 2 (gap must break coalescing)", b.Len())
	}
	if b.Stream()[1].Gap != 5 {
		t.Fatalf("gap = %d, want 5", b.Stream()[1].Gap)
	}
}

func TestBuilderSplitsOversizedGaps(t *testing.T) {
	var b Builder
	b.Work(200000)
	b.Load(64)
	s := b.Stream()
	var total int
	for _, r := range s {
		total += int(r.Gap)
	}
	if total != 200000 {
		t.Fatalf("gap sum = %d, want 200000", total)
	}
	for _, r := range s[:len(s)-1] {
		if r.Gap != 65535 {
			t.Fatalf("filler gap = %d, want 65535", r.Gap)
		}
	}
}

func TestBuilderRecordsBlockAligned(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		var b Builder
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			if w {
				b.Store(mem.Addr(a))
			} else {
				b.Load(mem.Addr(a))
			}
		}
		for _, r := range b.Stream() {
			if !r.Addr().BlockAligned() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTraceAnalysis(t *testing.T) {
	tr := &Trace{Name: "a", Streams: []Stream{
		{{Block: 0, Write: false}, {Block: 1, Write: true}},
		{{Block: 0, Write: true}},
	}}
	if tr.Cores() != 2 || tr.Records() != 3 {
		t.Fatalf("cores/records = %d/%d", tr.Cores(), tr.Records())
	}
	if tr.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2", tr.Footprint())
	}
	if tr.FootprintBytes() != 128 {
		t.Fatalf("footprint bytes = %d", tr.FootprintBytes())
	}
	if ws := tr.WriteShare(); ws < 0.66 || ws > 0.67 {
		t.Fatalf("write share = %f", ws)
	}
	rc := tr.ReuseCounts()
	if rc[0] != 2 || rc[1] != 1 {
		t.Fatalf("reuse counts = %v", rc)
	}
}

func TestRecordIsEightBytes(t *testing.T) {
	if sz := unsafe.Sizeof(Record{}); sz != 8 {
		t.Fatalf("Record is %d bytes, want 8", sz)
	}
}

func TestBuilderRejectsAddressBeyondRange(t *testing.T) {
	var b Builder
	b.Load(1<<38 - mem.BlockSize) // the last representable block
	if got := b.Stream()[0].Addr(); got != 1<<38-mem.BlockSize {
		t.Fatalf("top block round-tripped to %#x", uint64(got))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Store beyond 256 GiB did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "0x4000000000") {
			t.Errorf("panic %q does not name the address", msg)
		}
	}()
	b.Store(1 << 38)
}
