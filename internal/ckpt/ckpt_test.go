package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// sampleManifest builds a representative manifest.
func sampleManifest() *Manifest {
	return &Manifest{
		ConfigSHA:       "00112233aabbccdd",
		Workload:        "LU",
		Arch:            "RedCache",
		Seed:            1,
		Faults:          "tagflip=1e-6",
		FaultSeed:       7,
		EpochCycles:     4096,
		InvariantCycles: 8192,
		MaxCycles:       1 << 30,
		Cycle:           123456,
	}
}

// samplePayload exercises every writer primitive.
func samplePayload() []byte {
	var w Writer
	w.Tag(0x54455354)
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.I64(-42)
	w.F64(3.25)
	w.Int(99)
	w.Count(3)
	w.String("hello")
	return w.Bytes()
}

// TestWriterReaderRoundTrip checks every primitive pair.
func TestWriterReaderRoundTrip(t *testing.T) {
	r := NewReader(samplePayload())
	r.Tag(0x54455354)
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.25 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Int(); got != 99 {
		t.Errorf("Int = %d", got)
	}
	if got := r.Count(10); got != 3 {
		t.Errorf("Count = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("round trip error: %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left", r.Remaining())
	}
}

// TestReaderStructuralRejects pins the defensive decoding rules.
func TestReaderStructuralRejects(t *testing.T) {
	t.Run("bad bool", func(t *testing.T) {
		r := NewReader([]byte{2})
		r.Bool()
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("got %v", r.Err())
		}
	})
	t.Run("bad tag", func(t *testing.T) {
		var w Writer
		w.Tag(1)
		r := NewReader(w.Bytes())
		r.Tag(2)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("got %v", r.Err())
		}
	})
	t.Run("count bound", func(t *testing.T) {
		var w Writer
		w.Count(1000)
		r := NewReader(w.Bytes())
		if n := r.Count(10); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("count %d err %v", n, r.Err())
		}
	})
	t.Run("truncation", func(t *testing.T) {
		r := NewReader([]byte{1, 2})
		r.U64()
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("got %v", r.Err())
		}
	})
	t.Run("sticky", func(t *testing.T) {
		r := NewReader([]byte{2})
		r.Bool()
		first := r.Err()
		r.U64()
		_ = r.String()
		if r.Err() != first {
			t.Errorf("sticky error replaced: %v -> %v", first, r.Err())
		}
	})
}

// TestEncodeDecodeRoundTrip: a full container survives intact.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	man := sampleManifest()
	payload := samplePayload()
	data, err := Encode(man, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *man {
		t.Errorf("manifest round trip: %+v != %+v", got, man)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Error("payload round trip failed")
	}
}

// TestDecodeRejects is the damage table: every class of damage maps to
// its structured error, with no false accepts.
func TestDecodeRejects(t *testing.T) {
	man := sampleManifest()
	payload := samplePayload()
	good, err := Encode(man, payload)
	if err != nil {
		t.Fatal(err)
	}

	reseal := func(data []byte) []byte {
		body := data[:len(data)-sha256.Size]
		sum := sha256.Sum256(body)
		return append(bytes.Clone(body), sum[:]...)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"header only", good[:8], ErrTruncated},
		{"cut in manifest", good[:headerLen+2], ErrTruncated},
		{"cut in payload", good[:len(good)-sha256.Size-4], ErrTruncated},
		{"cut in checksum", good[:len(good)-4], ErrTruncated},
		{"bad magic", append([]byte("NOPE"), good[4:]...), ErrCorrupt},
		{"version skew", reseal(func() []byte {
			d := bytes.Clone(good)
			binary.LittleEndian.PutUint32(d[4:8], FormatVersion+1)
			return d
		}()), ErrVersion},
		// A well-formed format-1 file carries sharded-engine sections
		// this build no longer reads: refused as a version, not decoded
		// into a corrupt-looking payload.
		{"format 1", reseal(func() []byte {
			d := bytes.Clone(good)
			binary.LittleEndian.PutUint32(d[4:8], 1)
			return d
		}()), ErrVersion},
		{"flip manifest byte", func() []byte {
			d := bytes.Clone(good)
			d[headerLen+1] ^= 0x20
			return d
		}(), ErrCorrupt},
		{"flip payload byte", func() []byte {
			d := bytes.Clone(good)
			d[len(d)-sha256.Size-3] ^= 0x01
			return d
		}(), ErrCorrupt},
		{"flip checksum byte", func() []byte {
			d := bytes.Clone(good)
			d[len(d)-1] ^= 0x01
			return d
		}(), ErrCorrupt},
		{"trailing garbage", append(bytes.Clone(good), 0xff), ErrCorrupt},
		{"manifest not json", reseal(func() []byte {
			d := bytes.Clone(good)
			for i := headerLen; i < headerLen+4; i++ {
				d[i] = 0xff
			}
			return d
		}()), ErrCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := Decode(c.data)
			if !errors.Is(err, c.want) {
				t.Errorf("got %v, want %v", err, c.want)
			}
			for _, other := range []error{ErrTruncated, ErrCorrupt, ErrVersion, ErrMismatch} {
				if other != c.want && errors.Is(err, other) {
					t.Errorf("got %v, which is also %v", err, other)
				}
			}
		})
	}
}

// TestHashConfigStable: equal configs hash equal, and a changed field
// changes the hash.
func TestHashConfigStable(t *testing.T) {
	type cfg struct{ A, B int }
	h1, h2 := HashConfig(cfg{1, 2}), HashConfig(cfg{1, 2})
	if h1 != h2 {
		t.Errorf("HashConfig not stable: %s vs %s", h1, h2)
	}
	if HashConfig(cfg{1, 3}) == h1 {
		t.Error("HashConfig ignores field changes")
	}
}

// TestManifestCompatible walks every pinned field.
func TestManifestCompatible(t *testing.T) {
	base := sampleManifest()
	if err := base.Compatible(sampleManifest()); err != nil {
		t.Fatalf("identical manifests incompatible: %v", err)
	}
	// A snapshot at a different cycle is still resumable.
	later := sampleManifest()
	later.Cycle = 999999
	if err := later.Compatible(base); err != nil {
		t.Fatalf("cycle must not participate in compatibility: %v", err)
	}
	mutations := map[string]func(*Manifest){
		"config":     func(m *Manifest) { m.ConfigSHA = "ffff" },
		"workload":   func(m *Manifest) { m.Workload = "IS" },
		"arch":       func(m *Manifest) { m.Arch = "Alloy" },
		"seed":       func(m *Manifest) { m.Seed++ },
		"faults":     func(m *Manifest) { m.Faults = "" },
		"fault seed": func(m *Manifest) { m.FaultSeed++ },
		"epoch":      func(m *Manifest) { m.EpochCycles++ },
		"invariants": func(m *Manifest) { m.InvariantCycles++ },
		"max cycles": func(m *Manifest) { m.MaxCycles++ },
		"final":      func(m *Manifest) { m.Final = "watchdog" },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			m := sampleManifest()
			mutate(m)
			if err := m.Compatible(base); !errors.Is(err, ErrMismatch) {
				t.Errorf("got %v, want ErrMismatch", err)
			}
		})
	}
}

// TestSaveFileAtomic: SaveFile publishes whole files and leaves no
// temp litter; LoadFile reads them back.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	man := sampleManifest()
	payload := samplePayload()
	if err := SaveFile(path, man, payload); err != nil {
		t.Fatal(err)
	}
	// Overwrite: the second save must replace, not append or tear.
	man2 := sampleManifest()
	man2.Cycle = 777
	if err := SaveFile(path, man2, payload); err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != 777 {
		t.Errorf("read back cycle %d, want 777", got.Cycle)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Error("payload mismatch after overwrite")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want just the checkpoint", len(entries))
	}
}

// TestLoadFileMissing: a missing file surfaces the os error, not a
// codec class (the supervisor distinguishes "no checkpoint yet" from
// "checkpoint damaged").
func TestLoadFileMissing(t *testing.T) {
	_, _, err := LoadFile(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want fs not-exist", err)
	}
}

// FuzzCheckpointDecode: no input may crash the decoder, and any input
// it rejects must map to exactly one structured class.  Accepted
// inputs must re-encode to an accepted image with identical manifest
// and payload (no wrong-but-plausible decodes).
func FuzzCheckpointDecode(f *testing.F) {
	good, err := Encode(sampleManifest(), samplePayload())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(magic))
	f.Add([]byte{})
	flipped := bytes.Clone(good)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		man, payload, err := Decode(data)
		if err != nil {
			n := 0
			for _, class := range []error{ErrTruncated, ErrCorrupt, ErrVersion, ErrMismatch} {
				if errors.Is(err, class) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("rejection %v matches %d structured classes, want exactly 1", err, n)
			}
			return
		}
		re, err := Encode(man, payload)
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		man2, payload2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if *man2 != *man || !bytes.Equal(payload2, payload) {
			t.Fatal("decode/encode/decode is not a fixed point")
		}
	})
}
