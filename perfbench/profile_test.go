package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"redcache/internal/cpu.NewComplex.NewCore.func3":             "cpu",
		"redcache/internal/dram.(*txnQueue).at":                      "dram",
		"redcache/internal/dram.(*Controller).pickFrom":              "dram",
		"redcache/internal/engine.(*Engine).Run":                     "engine",
		"redcache/internal/hbm.(*red).Submit.func1":                  "hbm",
		"redcache/internal/experiments.(*Suite).runAll.func1":        "experiments",
		"redcache/internal/workloads.LU":                             "workloads",
		"redcache/internal/sim.Run":                                  "sim",
		"redcache/internal/cache.(*Hierarchy).Access":                "cache",
		"redcache/internal/obs.(*Series).sample":                     "other",
		"redcache/internal/engine.pop[go.shape.struct { at int64 }]": "engine",
		"slices.SortFunc[go.shape.[]redcache/internal/dram.Txn]":     "other",
		"runtime.mallocgc":                                           "runtime",
		"runtime.gcBgMarkWorker":                                     "runtime",
		"runtime._GC":                                                "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                     "runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":                 "other",
		"sync.(*Mutex).Lock":                                         "other",
		"main.main":                                                  "other",
		"":                                                           "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb appends protobuf fields to a message.
type pb []byte

func (m pb) varint(num int, v uint64) pb {
	m = binary.AppendUvarint(m, uint64(num)<<3)
	return binary.AppendUvarint(m, v)
}

func (m pb) bytes(num int, b []byte) pb {
	m = binary.AppendUvarint(m, uint64(num)<<3|2)
	m = binary.AppendUvarint(m, uint64(len(b)))
	return append(m, b...)
}

func (m pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return m.bytes(num, p)
}

// TestSelfSecondsLeafFrame builds a profile by hand: an inlined dram
// method whose location also lists its caller, a cpu closure, a runtime
// frame below simulator frames, and a stack-less sample.
func TestSelfSecondsLeafFrame(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"redcache/internal/dram.(*txnQueue).at",
		"redcache/internal/hbm.(*alloy).Submit",
		"redcache/internal/cpu.NewComplex.NewCore.func3",
		"runtime.mallocgc",
		"redcache/internal/engine.(*Engine).Run"}
	var prof pb
	prof = prof.bytes(profSampleType, pb{}.varint(valueTypeType, 1).varint(valueTypeUnit, 2))
	prof = prof.bytes(profSampleType, pb{}.varint(valueTypeType, 3).varint(valueTypeUnit, 4))
	// Functions 1..5 name strings 5..9.
	for id := uint64(1); id <= 5; id++ {
		prof = prof.bytes(profFunction, pb{}.varint(functionID, id).varint(functionName, id+4))
	}
	line := func(fn uint64) []byte { return pb{}.varint(lineFunction, fn) }
	// Location 1: a dram method inlined into an hbm caller (callee first);
	// the sample belongs to the callee.
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 1).bytes(locationLine, line(1)).bytes(locationLine, line(2)))
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 2).bytes(locationLine, line(3)))
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 3).bytes(locationLine, line(4)))
	prof = prof.bytes(profLocation, pb{}.varint(locationID, 4).bytes(locationLine, line(5)))
	const ms = uint64(time.Millisecond)
	// Sample values [count, cpu ns]; location ids leaf first, packed or not.
	prof = prof.bytes(profSample, pb{}.packed(sampleLocationID, 1, 4, 4).varint(sampleValue, 3).varint(sampleValue, 30*ms))
	prof = prof.bytes(profSample, pb{}.varint(sampleLocationID, 2).varint(sampleLocationID, 4).packed(sampleValue, 2, 20*ms))
	prof = prof.bytes(profSample, pb{}.packed(sampleLocationID, 3, 2, 4).packed(sampleValue, 1, 10*ms))
	prof = prof.bytes(profSample, pb{}.packed(sampleValue, 4, 40*ms))
	for _, s := range strs {
		prof = prof.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := selfSeconds(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"dram": 0.03, "cpu": 0.02, "runtime": 0.01, "other": 0.04}
	for _, l := range layers {
		if math.Abs(got[l]-want[l]) > 1e-12 {
			t.Errorf("%s = %v, want %v", l, got[l], want[l])
		}
	}
}

// TestSelfSecondsRuntimeProfile decodes a real runtime/pprof profile.
func TestSelfSecondsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = spin(x)
	}
	pprof.StopCPUProfile()
	got, err := selfSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range layers {
		total += got[l]
	}
	if total < 0.1 || got["other"] < total/2 {
		t.Errorf("profile of a 300 ms spin attributes %v s in total and %v s to this package (x=%d)", total, got["other"], x)
	}
}

func spin(x int) int {
	for i := 0; i < 1e5; i++ {
		x = x*31 + i
	}
	return x
}

func TestSelfSecondsRejectsGarbage(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x40, 0x01}) // sample field claiming 64 bytes
	zw.Close()
	if _, err := selfSeconds(gz.Bytes()); err == nil {
		t.Error("truncated profile decoded without error")
	}
	if _, err := selfSeconds([]byte("not gzip")); err == nil {
		t.Error("non-gzip input decoded without error")
	}
}
