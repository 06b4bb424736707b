package trace

import (
	"bytes"
	"testing"
)

// TestCodecSteadyStateAllocs pins the reuse contract behind the
// TraceRoundTrip fix: once an Encoder/Decoder pair has seen a trace of
// a given shape, further round trips reuse the bufio buffers, the
// record chunk, and the decoded stream backing arrays.  The only
// per-op allocation left is the decoded Name string.
func TestCodecSteadyStateAllocs(t *testing.T) {
	tr := benchTrace()
	enc, dec := NewEncoder(), NewDecoder()
	var buf bytes.Buffer
	rd := bytes.NewReader(nil)
	roundTrip := func() {
		buf.Reset()
		if err := enc.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		rd.Reset(buf.Bytes())
		if _, err := dec.Decode(rd); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm the buffers: first decode grows the streams
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs > 2 {
		t.Errorf("steady-state round trip: %v allocs/op, want <= 2", allocs)
	}
}

// TestDecoderReuseMatchesOneShot checks that a reused Decoder returns
// the same records as the package-level Decode, including across
// traces of different shapes where buffer reuse is partial.
func TestDecoderReuseMatchesOneShot(t *testing.T) {
	big := benchTrace()
	small := &Trace{Name: "small", Streams: []Stream{{{Gap: 3, Write: true, Block: 1}}}}
	dec := NewDecoder()
	for _, tr := range []*Trace{big, small, big} {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		want, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || len(got.Streams) != len(want.Streams) {
			t.Fatalf("decoded %q/%d streams, want %q/%d",
				got.Name, len(got.Streams), want.Name, len(want.Streams))
		}
		for i := range want.Streams {
			if len(got.Streams[i]) != len(want.Streams[i]) {
				t.Fatalf("stream %d: %d records, want %d",
					i, len(got.Streams[i]), len(want.Streams[i]))
			}
			for j, r := range want.Streams[i] {
				if got.Streams[i][j] != r {
					t.Fatalf("stream %d record %d = %+v, want %+v",
						i, j, got.Streams[i][j], r)
				}
			}
		}
	}
}
