// Package trace defines the block-granular memory trace format the
// workload generators emit and the CPU model consumes, plus a compact
// binary file codec and trace-analysis helpers (footprint, reuse CDF).
//
// A record is one memory operation preceded by a count of non-memory
// instructions ("gap"); the CPU model retires the gap at its issue width
// and then performs the access.  Traces are block-granular (64 B): the
// generators coalesce consecutive touches to the same block, which is
// the standard granularity for memory-system studies (DESIGN.md §2).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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

// Binary trace file format:
//
//	magic "RCT1" | uint32 cores | name (uint16 len + bytes)
//	per stream: uint64 count, then count records of
//	    uint16 gap | uint8 flags | uint64 addr  (little endian)
//
// The addr field is a byte address; Decode rejects one that is not
// block aligned or not below 2^38, since a Record cannot hold it.
var magic = [4]byte{'R', 'C', 'T', '1'}

// recSize is the encoded size of one record; recBatch records are staged
// in one reused buffer per codec call, so the per-record cost is a fixed
// 11 B memory copy rather than a bufio call (and, on decode, a parse out
// of a bulk-read chunk).  The batch buffer is ~5.6 KB — small enough to
// stay cache-resident, large enough to amortize the io calls.
const (
	recSize  = 11
	recBatch = 512
)

// Encoder writes traces in the binary format.  Its bufio.Writer and
// record-batch chunk are reused across Encode calls, so steady-state
// encoding (redbench loops, sweep harnesses re-emitting traces) does
// not allocate.  An Encoder is not safe for concurrent use.
type Encoder struct {
	bw *bufio.Writer
	// scratch backs the fixed-size header and count writes; a local
	// array would escape through the io.Writer interface and cost one
	// heap allocation per write.
	scratch [8]byte
	chunk   [recSize * recBatch]byte
}

// NewEncoder returns an Encoder with its buffers preallocated.
func NewEncoder() *Encoder { return &Encoder{bw: bufio.NewWriter(nil)} }

// Encode writes t to w in the binary trace format.
func Encode(w io.Writer, t *Trace) error { return NewEncoder().Encode(w, t) }

// Encode writes t to w, reusing the Encoder's internal buffers.  The
// output bytes are identical to the package-level Encode.
func (e *Encoder) Encode(w io.Writer, t *Trace) error {
	bw := e.bw
	bw.Reset(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if len(t.Name) > 65535 {
		return errors.New("trace: name too long")
	}
	hdr := e.scratch[:6]
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(t.Streams)))
	binary.LittleEndian.PutUint16(hdr[4:], uint16(len(t.Name)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	for _, s := range t.Streams {
		cnt := e.scratch[:8]
		binary.LittleEndian.PutUint64(cnt, uint64(len(s)))
		if _, err := bw.Write(cnt); err != nil {
			return err
		}
		for off := 0; off < len(s); off += recBatch {
			n := len(s) - off
			if n > recBatch {
				n = recBatch
			}
			for i, r := range s[off : off+n] {
				rec := e.chunk[i*recSize:]
				binary.LittleEndian.PutUint16(rec[0:2], r.Gap)
				if r.Write {
					rec[2] = 1
				} else {
					rec[2] = 0
				}
				binary.LittleEndian.PutUint64(rec[3:recSize], uint64(r.Addr()))
			}
			if _, err := bw.Write(e.chunk[:n*recSize]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Decoder reads traces in the binary format.  The bufio.Reader, the
// record-batch chunk, and — critically for the round-trip cost — the
// per-stream backing arrays are all reused across Decode calls, so
// decoding the same-shaped trace repeatedly settles to a handful of
// small allocations instead of re-growing megabytes of records each
// time.  A Decoder is not safe for concurrent use.
type Decoder struct {
	br *bufio.Reader
	// scratch backs the fixed-size header and count reads; a local
	// array would escape through the io.Reader interface and cost one
	// heap allocation per read.
	scratch [8]byte
	chunk   [recSize * recBatch]byte
	streams []Stream
	name    []byte
	trace   Trace
}

// NewDecoder returns a Decoder with its buffers preallocated.
func NewDecoder() *Decoder { return &Decoder{br: bufio.NewReader(nil)} }

// Decode reads a trace in the binary format produced by Encode.  The
// returned Trace is freshly allocated and owned by the caller.
func Decode(r io.Reader) (*Trace, error) { return NewDecoder().Decode(r) }

// Decode reads a trace from r into the Decoder's reused buffers.  The
// returned Trace and its streams are owned by the Decoder and are only
// valid until the next Decode call; callers that keep records past
// that point must copy them out.
func (d *Decoder) Decode(r io.Reader) (*Trace, error) {
	br := d.br
	br.Reset(r)
	m := d.scratch[:4]
	if _, err := io.ReadFull(br, m); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if [4]byte(m) != magic {
		return nil, errors.New("trace: bad magic")
	}
	hdr := d.scratch[:6]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", truncated(err))
	}
	cores := binary.LittleEndian.Uint32(hdr[:4])
	nameLen := binary.LittleEndian.Uint16(hdr[4:])
	if cores > 1<<16 {
		return nil, fmt.Errorf("trace: implausible core count %d", cores)
	}
	if cap(d.name) < int(nameLen) {
		d.name = make([]byte, nameLen)
	}
	name := d.name[:nameLen]
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", truncated(err))
	}
	if cap(d.streams) < int(cores) {
		d.streams = make([]Stream, cores)
	}
	d.trace = Trace{Name: string(name), Streams: d.streams[:cores]}
	t := &d.trace
	for i := range t.Streams {
		cnt := d.scratch[:8]
		if _, err := io.ReadFull(br, cnt); err != nil {
			return nil, fmt.Errorf("trace: reading stream %d count: %w", i, truncated(err))
		}
		n := binary.LittleEndian.Uint64(cnt)
		if n > 1<<32 {
			return nil, fmt.Errorf("trace: implausible record count %d", n)
		}
		// Grow the stream batch by verified batch instead of trusting the
		// declared count: a corrupt or hostile header can claim 2^32
		// records, and preallocating that would be a 60+ GB allocation
		// before the first truncated read is ever noticed.  The initial
		// capacity covers any honest small trace in one shot, and a
		// previous Decode's backing array is reused when large enough.
		s := t.Streams[i][:0]
		if cap(s) == 0 {
			s = make(Stream, 0, min64(n, 1<<16))
		}
		for off := uint64(0); off < n; off += recBatch {
			k := int(min64(n-off, recBatch))
			if _, err := io.ReadFull(br, d.chunk[:k*recSize]); err != nil {
				return nil, fmt.Errorf("trace: stream %d truncated at record %d of %d: %w",
					i, off, n, truncated(err))
			}
			for j := 0; j < k; j++ {
				rec := d.chunk[j*recSize:]
				addr := mem.Addr(binary.LittleEndian.Uint64(rec[3:recSize]))
				if !addr.BlockAligned() || addr >= maxAddr {
					return nil, fmt.Errorf("trace: stream %d record %d: address %#x is not a block-aligned address below 256 GiB",
						i, off+uint64(j), uint64(addr))
				}
				s = append(s, Record{
					Gap:   binary.LittleEndian.Uint16(rec[0:2]),
					Write: rec[2] != 0,
					Block: uint32(addr.Block()),
				})
			}
		}
		t.Streams[i] = s
	}
	return t, nil
}

// truncated maps the io.ReadFull mid-object EOF to ErrUnexpectedEOF so
// every short read — even one cut exactly between records — reports as
// a truncation rather than a clean end of file.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
