package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
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

func randomTrace(rng *rand.Rand) *Trace {
	tr := &Trace{Name: "rand"}
	for c := 0; c < 1+rng.Intn(4); c++ {
		var s Stream
		for i := 0; i < rng.Intn(200); i++ {
			s = append(s, Record{
				Gap:   uint16(rng.Intn(1000)),
				Write: rng.Intn(2) == 0,
				Block: uint32(rng.Intn(1 << 18)),
			})
		}
		tr.Streams = append(tr.Streams, s)
	}
	return tr
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		tr := randomTrace(rng)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != tr.Name || len(got.Streams) != len(tr.Streams) {
			t.Fatalf("header mismatch: %q/%d vs %q/%d",
				got.Name, len(got.Streams), tr.Name, len(tr.Streams))
		}
		for c := range tr.Streams {
			if len(tr.Streams[c]) == 0 && len(got.Streams[c]) == 0 {
				continue
			}
			if !reflect.DeepEqual(got.Streams[c], tr.Streams[c]) {
				t.Fatalf("stream %d differs", c)
			}
		}
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(strings.NewReader("XXXXgarbage")); err == nil {
		t.Error("expected error on bad magic")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	tr := &Trace{Name: "x", Streams: []Stream{{{Gap: 1, Block: 1}}}}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut += 3 {
		if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("expected error decoding %d/%d bytes", cut, len(raw))
		}
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

func TestDecodeRejectsUnrepresentableAddress(t *testing.T) {
	tr := &Trace{Name: "x", Streams: []Stream{{{Gap: 1, Block: 1}, {Write: true, Block: 2}}}}
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// magic | cores | name length | name | count | record 0 | record 1,
	// whose address field follows its gap and flags bytes.
	addrOff := 4 + 6 + len(tr.Name) + 8 + recSize + 3
	for _, addr := range []uint64{2*mem.BlockSize + 8, 1 << 38} {
		raw := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(raw[addrOff:], addr)
		_, err := Decode(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("address %#x: decoded without error", addr)
		}
		if !strings.Contains(err.Error(), "stream 0 record 1") {
			t.Errorf("address %#x: error %q does not name the stream and record", addr, err)
		}
	}
	// The largest representable block still decodes.
	raw := append([]byte(nil), buf.Bytes()...)
	binary.LittleEndian.PutUint64(raw[addrOff:], 1<<38-mem.BlockSize)
	got, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b := got.Streams[0][1].Block; b != 1<<32-1 {
		t.Fatalf("top block decoded as %#x", b)
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
