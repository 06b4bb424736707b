// Package ckpt is the deterministic checkpoint codec: a versioned,
// sha256-integrity-checked, torn-write-safe container for a serialized
// machine state, plus the primitive binary encoder/decoder a
// component's save/load pair builds on.
//
// No package imports ckpt: the simulator no longer checkpoints or
// resumes runs, because none lasts long enough to need it.  The
// package is a self-contained leaf kept only until its own removal.
//
// A checkpoint file is
//
//	magic "RCK1" | u32 format | u32 manifest len | manifest JSON |
//	u64 payload len | payload | sha256 over everything before it
//
// The manifest is JSON so a corrupt or mismatched checkpoint can be
// inspected with standard tools; the payload is a flat little-endian
// binary stream produced by component encoders, with section
// tags so a desynchronized decode fails loudly instead of misreading
// a neighbouring component's bytes.
//
// Failure taxonomy (all wrapped, errors.Is-able):
//
//	ErrTruncated — the file ends before the declared content
//	ErrCorrupt   — structure, tag or checksum violation
//	ErrVersion   — a format this build does not speak
//	ErrMismatch  — a well-formed checkpoint for a different run
//
// Writes go to a temp file in the destination directory, are fsynced,
// and then renamed over the target, so a crash mid-write can never
// leave a half-written file under the checkpoint's name.
package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// FormatVersion is the checkpoint format this build writes and reads.
// Format 2 dropped the sharded-engine state (the coordinator section,
// the engine's external-work flag, the DRAM channels' hand-off rings,
// shadow counters and per-channel injector views, and the injector's
// view-derivation seed) from the payload.
const FormatVersion = 2

const magic = "RCK1"

// Structured failure classes.  Decoding errors wrap exactly one of
// these, so callers branch with errors.Is and exit with a stable code.
var (
	// ErrTruncated marks a checkpoint file that ends before its
	// declared content — a crash mid-write of a pre-rename temp file,
	// or a copy that was cut short.
	ErrTruncated = errors.New("checkpoint truncated")
	// ErrCorrupt marks a structural violation: bad magic, a failed
	// sha256 check, a section tag out of sequence, or an implausible
	// count.
	ErrCorrupt = errors.New("checkpoint corrupt")
	// ErrVersion marks a checkpoint written by a format revision this
	// build does not speak.
	ErrVersion = errors.New("unsupported checkpoint format")
	// ErrMismatch marks a well-formed checkpoint that belongs to a
	// different run configuration and must never be resumed silently.
	ErrMismatch = errors.New("checkpoint does not match this run")
)

// Manifest is the provenance header: everything that must match
// between the run that wrote a checkpoint and the run trying to
// resume from it.  Cycle and Final describe the snapshot itself and
// are excluded from compatibility checks.
type Manifest struct {
	Format    int    `json:"format"`
	ConfigSHA string `json:"config_sha"`
	Workload  string `json:"workload"`
	Arch      string `json:"arch"`
	Seed      int64  `json:"seed"`
	// Faults is the canonical fault spec ("" = fault-free) and
	// FaultSeed its PRNG seed; both steer every injector draw.
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// EpochCycles and InvariantCycles pin the periodic schedules
	// (telemetry sampling and invariant sweeps are heap events).
	EpochCycles     int64 `json:"epoch_cycles,omitempty"`
	InvariantCycles int64 `json:"invariant_cycles,omitempty"`
	// MaxCycles pins the watchdog budget and the event limit derived
	// from it, so a resumed run aborts exactly where the original would.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Cycle is the simulation time the snapshot was captured at.
	Cycle int64 `json:"cycle"`
	// Final is "" for a periodic snapshot, or the abort op
	// ("watchdog", "invariant") for a diagnostic snapshot written on
	// the way out of a failed run.
	Final string `json:"final,omitempty"`
}

// HashConfig fingerprints any resolved configuration value by hashing
// its exhaustive %+v rendering — cheap, dependency-free, and stable
// for the plain structs the simulator's configs are made of.
func HashConfig(cfg any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", cfg)))
	return fmt.Sprintf("%x", sum[:8])
}

// Compatible reports whether a checkpoint written under m can resume a
// run described by want.  Any difference (other than Cycle/Final) is a
// wrapped ErrMismatch naming the offending field.
func (m *Manifest) Compatible(want *Manifest) error {
	mismatch := func(field string, got, exp any) error {
		return fmt.Errorf("ckpt: %s %v, run has %v: %w", field, got, exp, ErrMismatch)
	}
	switch {
	case m.ConfigSHA != want.ConfigSHA:
		return mismatch("config hash", m.ConfigSHA, want.ConfigSHA)
	case m.Workload != want.Workload:
		return mismatch("workload", m.Workload, want.Workload)
	case m.Arch != want.Arch:
		return mismatch("arch", m.Arch, want.Arch)
	case m.Seed != want.Seed:
		return mismatch("seed", m.Seed, want.Seed)
	case m.Faults != want.Faults:
		return mismatch("fault spec", m.Faults, want.Faults)
	case m.FaultSeed != want.FaultSeed:
		return mismatch("fault seed", m.FaultSeed, want.FaultSeed)
	case m.EpochCycles != want.EpochCycles:
		return mismatch("telemetry epoch", m.EpochCycles, want.EpochCycles)
	case m.InvariantCycles != want.InvariantCycles:
		return mismatch("invariant period", m.InvariantCycles, want.InvariantCycles)
	case m.MaxCycles != want.MaxCycles:
		return mismatch("cycle budget", m.MaxCycles, want.MaxCycles)
	}
	if m.Final != "" {
		return fmt.Errorf("ckpt: diagnostic snapshot taken at %s abort is not resumable: %w",
			m.Final, ErrMismatch)
	}
	return nil
}

// Writer is the in-memory payload encoder.  All integers are
// little-endian fixed width; the writer never fails (encoding errors
// are structurally impossible), so component encoders stay
// branch-free.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Tag writes a section marker the reader must consume with the same
// value, catching encoder/decoder drift at the component boundary it
// happened in instead of megabytes later.
func (w *Writer) Tag(t uint32) { w.U32(t) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64 as its two's-complement bits.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Int appends a machine int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Count appends a collection length.
func (w *Writer) Count(n int) { w.U64(uint64(n)) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Count(len(s))
	w.buf = append(w.buf, s...)
}

// Reader decodes a payload with a sticky error: after the first
// failure every subsequent read returns zero values, so load paths
// check Err once per component instead of per field.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps a payload.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err reports the first decode failure, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the unconsumed byte count — a successful machine
// load must leave it at zero, or the payload and the decoder disagree
// about the state layout.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// fail records the sticky error (first one wins).
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take returns the next n bytes or records truncation.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail(fmt.Errorf("ckpt: payload ends at byte %d, need %d more: %w",
			r.off, n-(len(r.data)-r.off), ErrTruncated))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Tag consumes a section marker, failing with ErrCorrupt on mismatch.
func (r *Reader) Tag(want uint32) {
	got := r.U32()
	if r.err == nil && got != want {
		r.fail(fmt.Errorf("ckpt: section tag %#x at byte %d, want %#x: %w",
			got, r.off-4, want, ErrCorrupt))
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a 0/1 byte, rejecting other values (a misaligned decode
// almost always trips here first).
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.fail(fmt.Errorf("ckpt: bool byte %#x at byte %d: %w", v, r.off-1, ErrCorrupt))
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Int reads a machine int.
func (r *Reader) Int() int {
	return int(r.I64()) //redvet:units — checkpoint ints were written from machine ints; load paths bound them against live geometry before use
}

// Count reads a collection length and rejects implausible values
// before the caller allocates, so a corrupt length can never drive a
// multi-gigabyte make().
func (r *Reader) Count(max int) int {
	n := r.U64()
	if r.err == nil && n > uint64(max) {
		r.fail(fmt.Errorf("ckpt: count %d exceeds plausible bound %d at byte %d: %w",
			n, max, r.off-8, ErrCorrupt))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1 << 20)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// headerLen is magic + format + manifest length.
const headerLen = 4 + 4 + 4

// Encode assembles a complete checkpoint file image.
func Encode(m *Manifest, payload []byte) ([]byte, error) {
	m.Format = FormatVersion
	mj, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encoding manifest: %w", err)
	}
	buf := make([]byte, 0, headerLen+len(mj)+8+len(payload)+sha256.Size)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, FormatVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mj)))
	buf = append(buf, mj...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	return buf, nil
}

// Decode parses and integrity-checks a checkpoint file image,
// returning the manifest and payload.  Every rejection wraps one of
// the structured error classes.
func Decode(data []byte) (*Manifest, []byte, error) {
	if len(data) < headerLen {
		return nil, nil, fmt.Errorf("ckpt: %d-byte file is shorter than the %d-byte header: %w",
			len(data), headerLen, ErrTruncated)
	}
	if string(data[:4]) != magic {
		return nil, nil, fmt.Errorf("ckpt: bad magic %q: %w", data[:4], ErrCorrupt)
	}
	format := binary.LittleEndian.Uint32(data[4:8])
	if format != FormatVersion {
		return nil, nil, fmt.Errorf("ckpt: format %d, this build speaks %d: %w",
			format, FormatVersion, ErrVersion)
	}
	mlen := int(binary.LittleEndian.Uint32(data[8:12]))
	if mlen > 1<<20 {
		return nil, nil, fmt.Errorf("ckpt: %d-byte manifest exceeds plausible bound: %w", mlen, ErrCorrupt)
	}
	if len(data) < headerLen+mlen+8 {
		return nil, nil, fmt.Errorf("ckpt: file ends inside the manifest: %w", ErrTruncated)
	}
	mj := data[headerLen : headerLen+mlen]
	plen := binary.LittleEndian.Uint64(data[headerLen+mlen : headerLen+mlen+8])
	rest := data[headerLen+mlen+8:]
	if uint64(len(rest)) < plen || len(rest)-int(plen) < sha256.Size {
		return nil, nil, fmt.Errorf("ckpt: file ends inside the %d-byte payload: %w", plen, ErrTruncated)
	}
	if len(rest)-int(plen) != sha256.Size {
		return nil, nil, fmt.Errorf("ckpt: %d trailing bytes after checksum: %w",
			len(rest)-int(plen)-sha256.Size, ErrCorrupt)
	}
	hashed := data[: len(data)-sha256.Size : len(data)-sha256.Size]
	sum := sha256.Sum256(hashed)
	if string(sum[:]) != string(data[len(data)-sha256.Size:]) {
		return nil, nil, fmt.Errorf("ckpt: sha256 mismatch: %w", ErrCorrupt)
	}
	var m Manifest
	if err := json.Unmarshal(mj, &m); err != nil {
		return nil, nil, fmt.Errorf("ckpt: decoding manifest: %v: %w", err, ErrCorrupt)
	}
	return &m, rest[:plen:plen], nil
}

// SaveFile writes a checkpoint atomically: temp file in the target's
// directory, fsync, rename, directory fsync.  A reader can never
// observe a torn file under path.
func SaveFile(path string, m *Manifest, payload []byte) error {
	data, err := Encode(m, payload)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: publishing %s: %w", path, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadFile reads and integrity-checks a checkpoint file.
func LoadFile(path string) (*Manifest, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: reading %s: %w", path, err)
	}
	m, payload, err := Decode(data)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return m, payload, nil
}
