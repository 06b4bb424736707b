package cpu

import (
	"testing"

	"redcache/internal/config"
	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/trace"
)

// fixedMem is a Submitter completing every read after a fixed latency.
type fixedMem struct {
	eng     *engine.Engine
	latency int64
	reads   int
	writes  int
}

func (m *fixedMem) Submit(req *mem.Request) {
	if req.Type == mem.Write {
		m.writes++
		req.Complete(m.eng.Now())
		return
	}
	m.reads++
	finish := m.eng.Now() + m.latency
	done := req.TakeDone()
	m.eng.Schedule(finish, func() { done(finish) })
}

func testCfg(cores int) *config.System {
	cfg := config.Tiny()
	cfg.CPU.Cores = cores
	return cfg
}

func run(t *testing.T, tr *trace.Trace, latency int64) (*Complex, *fixedMem, int64) {
	t.Helper()
	eng := engine.New()
	ms := &fixedMem{eng: eng, latency: latency}
	cx := NewComplex(eng, testCfg(tr.Cores()), tr, ms)
	cx.Start()
	eng.Run()
	if cx.AllDoneAt < 0 {
		t.Fatal("complex never finished")
	}
	return cx, ms, cx.AllDoneAt
}

func seqTrace(cores, recs int, gap uint16) *trace.Trace {
	tr := &trace.Trace{Name: "seq"}
	for c := 0; c < cores; c++ {
		var s trace.Stream
		for i := 0; i < recs; i++ {
			s = append(s, trace.Record{Gap: gap,
				Block: uint32((c*recs + i) * 64)}) // distinct pages: all miss
		}
		tr.Streams = append(tr.Streams, s)
	}
	return tr
}

func TestEmptyTraceFinishesImmediately(t *testing.T) {
	tr := &trace.Trace{Name: "empty", Streams: []trace.Stream{{}, {}}}
	cx, _, done := run(t, tr, 100)
	if done != 0 {
		t.Fatalf("done at %d, want 0", done)
	}
	if cx.Instructions() != 0 {
		t.Fatal("no instructions should retire")
	}
}

func TestInstructionAccounting(t *testing.T) {
	tr := seqTrace(2, 10, 7)
	cx, _, _ := run(t, tr, 50)
	// Each record retires gap + 1 instructions.
	want := int64(2 * 10 * (7 + 1))
	if cx.Instructions() != want {
		t.Fatalf("instructions = %d, want %d", cx.Instructions(), want)
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// One core, 8 independent loads, big latency: with a window of W the
	// total time should be far below 8*latency.
	tr := seqTrace(1, 8, 0)
	_, ms, done := run(t, tr, 1000)
	if ms.reads != 8 {
		t.Fatalf("reads = %d, want 8", ms.reads)
	}
	if done >= 8*1000 {
		t.Fatalf("no MLP: finished at %d", done)
	}
	if done < 1000 {
		t.Fatalf("finished before the first miss returned: %d", done)
	}
}

func TestWindowLimitThrottles(t *testing.T) {
	mk := func(window int) int64 {
		cfg := testCfg(1)
		cfg.CPU.MaxOutstanding = window
		eng := engine.New()
		ms := &fixedMem{eng: eng, latency: 500}
		cx := NewComplex(eng, cfg, seqTrace(1, 32, 0), ms)
		cx.Start()
		eng.Run()
		return cx.AllDoneAt
	}
	narrow, wide := mk(2), mk(32)
	if narrow <= wide {
		t.Fatalf("narrow window (%d) should be slower than wide (%d)", narrow, wide)
	}
}

func TestGapsAdvanceTime(t *testing.T) {
	// All L1 hits after first touch; time dominated by gap retirement at
	// the issue width.
	tr := &trace.Trace{Streams: []trace.Stream{make(trace.Stream, 100)}}
	for i := range tr.Streams[0] {
		tr.Streams[0][i] = trace.Record{Gap: 400, Block: 0}
	}
	cfg := testCfg(1)
	eng := engine.New()
	ms := &fixedMem{eng: eng, latency: 10}
	cx := NewComplex(eng, cfg, tr, ms)
	cx.Start()
	eng.Run()
	// 100 gaps of 400 instrs at width 4 = 10000 cycles minimum.
	if cx.AllDoneAt < 10000 {
		t.Fatalf("done at %d, want >= 10000", cx.AllDoneAt)
	}
}

func TestStoresArePosted(t *testing.T) {
	var s trace.Stream
	for i := 0; i < 10; i++ {
		s = append(s, trace.Record{Write: true, Block: uint32(i * 64)})
	}
	tr := &trace.Trace{Streams: []trace.Stream{s}}
	_, ms, done := run(t, tr, 2000)
	// Store misses fetch-for-ownership but do not serialize the core:
	// finishing should take ~1 latency, not 10.
	if ms.reads != 10 {
		t.Fatalf("fetch-for-ownership reads = %d, want 10", ms.reads)
	}
	if done >= 5*2000 {
		t.Fatalf("stores serialized the core: done at %d", done)
	}
}

func TestWritebacksReachMemory(t *testing.T) {
	// Dirty a long stream of blocks so L1/L2/L3 evictions cascade.
	var s trace.Stream
	for i := 0; i < 3000; i++ {
		s = append(s, trace.Record{Write: true, Block: uint32(i)})
	}
	tr := &trace.Trace{Streams: []trace.Stream{s}}
	_, ms, _ := run(t, tr, 20)
	if ms.writes == 0 {
		t.Fatal("no writebacks reached the memory system")
	}
}

func TestDeterminism(t *testing.T) {
	tr := seqTrace(4, 200, 3)
	_, _, d1 := run(t, tr, 77)
	_, _, d2 := run(t, tr, 77)
	if d1 != d2 {
		t.Fatalf("nondeterministic: %d vs %d", d1, d2)
	}
}

func TestLoadStallCyclesAccumulate(t *testing.T) {
	cfg := testCfg(1)
	cfg.CPU.MaxOutstanding = 1
	eng := engine.New()
	ms := &fixedMem{eng: eng, latency: 400}
	cx := NewComplex(eng, cfg, seqTrace(1, 8, 0), ms)
	cx.Start()
	eng.Run()
	if cx.Cores[0].LoadStallCycles == 0 {
		t.Fatal("a window of 1 must record stall cycles")
	}
}
