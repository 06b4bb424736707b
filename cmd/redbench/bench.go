package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"redcache/internal/ckpt"
	"redcache/internal/config"
	"redcache/internal/dram"
	"redcache/internal/engine"
	"redcache/internal/hbm"
	"redcache/internal/lint"
	"redcache/internal/mem"
	"redcache/internal/obs"
	"redcache/internal/sim"
	"redcache/internal/stats"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// The -bench mode runs the repo's performance benchmarks outside `go
// test` (via testing.Benchmark) and writes a machine-readable snapshot
// to BENCH_<date>.json, so CI and EXPERIMENTS.md work from the same
// numbers.
var (
	benchMode  = flag.Bool("bench", false, "run the performance benchmark suite and write BENCH_<date>.json")
	benchOut   = flag.String("benchout", "", "benchmark output path (default BENCH_<date>.json in the working directory)")
	benchProof = flag.String("proofstats", "", "redvet -proofstatsout JSON file to embed in the report as proof_stats")
)

// microResult is one testing.Benchmark measurement.
type microResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerSec is reported by engine benchmarks (one event per op);
	// zero for benchmarks where the metric is meaningless.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// MBPerSec is reported by the trace codec benchmark.
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
}

// e2eResult is one whole-simulation throughput measurement.
type e2eResult struct {
	Workload     string  `json:"workload"`
	Arch         string  `json:"arch"`
	Scale        string  `json:"scale"`
	Cycles       int64   `json:"cycles"`
	EventsFired  uint64  `json:"events_fired"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// e2eReps is the timed repetition count for end-to-end rows: each row
// reports the best of e2eReps runs after one untimed warmup, so rows
// compare best-case wall times instead of single-sample scheduler
// noise.
const e2eReps = 3

// benchReport is the BENCH_<date>.json schema.  Arrays, not maps: the
// file must be byte-stable given identical measurements.
type benchReport struct {
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	NumCPU    int           `json:"num_cpu"`
	Micro     []microResult `json:"micro"`
	EndToEnd  []e2eResult   `json:"end_to_end"`
	// ProofStats, when -proofstats points at a redvet -proofstatsout
	// file, records the statically discharged proof obligations at the
	// commit the benchmarks ran at, so performance and proof coverage
	// are snapshotted together.
	ProofStats *lint.ProofStats `json:"proof_stats,omitempty"`
	SchemaNote string           `json:"schema_note"`
}

func runBenchSuite() {
	date := time.Now().Format("2006-01-02") //redvet:wallclock — report timestamp, never feeds simulated state
	rep := benchReport{
		Date:      date,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		SchemaNote: "ns_per_op/allocs_per_op/bytes_per_op from testing.Benchmark; " +
			"events_per_sec = engine events per wall second; mb_per_sec for the trace and checkpoint codecs; " +
			"end_to_end wall_seconds is the best of 3 timed repetitions of one deterministic " +
			"run after one untimed warmup; " +
			"proof_stats, when present, is the redvet -proofstatsout snapshot of statically " +
			"discharged proof obligations for the same tree",
	}
	if *benchProof != "" {
		data, err := os.ReadFile(*benchProof)
		fatalIf(err)
		var ps lint.ProofStats
		fatalIf(json.Unmarshal(data, &ps))
		rep.ProofStats = &ps
	}

	fmt.Fprintln(os.Stderr, "  benchmarking engine (Schedule→Step)...")
	rep.Micro = append(rep.Micro, microBench("EngineScheduleFire", benchEngineScheduleFire, true, false))
	fmt.Fprintln(os.Stderr, "  benchmarking DRAM row-hit stream...")
	rep.Micro = append(rep.Micro, microBench("DRAMRowHitStream", benchDRAMRowHitStream, true, false))
	fmt.Fprintln(os.Stderr, "  benchmarking trace codec round trip...")
	rep.Micro = append(rep.Micro, microBench("TraceRoundTrip", benchTraceRoundTrip, false, true))
	fmt.Fprintln(os.Stderr, "  benchmarking telemetry epoch sample...")
	rep.Micro = append(rep.Micro, microBench("TelemetrySample", benchTelemetrySample, true, false))
	fmt.Fprintln(os.Stderr, "  benchmarking disabled tracer emit...")
	rep.Micro = append(rep.Micro, microBench("TracerEmitDisabled", benchTracerEmitDisabled, true, false))
	fmt.Fprintln(os.Stderr, "  benchmarking checkpoint save/restore...")
	rep.Micro = append(rep.Micro, microBench("CheckpointSaveRestore", benchCheckpointSaveRestore, false, true))

	for _, pair := range []struct {
		workload string
		arch     hbm.Arch
	}{
		{"LU", hbm.ArchRedCache},
		{"LU", hbm.ArchAlloy},
		{"HIST", hbm.ArchNoHBM},
	} {
		fmt.Fprintf(os.Stderr, "  simulating %s/%s (small scale)...\n", pair.workload, pair.arch)
		rep.EndToEnd = append(rep.EndToEnd, benchEndToEnd(pair.workload, pair.arch))
	}

	out := *benchOut
	if out == "" {
		out = fmt.Sprintf("BENCH_%s.json", date)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	fatalIf(err)
	data = append(data, '\n')
	fatalIf(os.WriteFile(out, data, 0o644))
	fmt.Println("wrote", out)
}

// microBench runs fn under testing.Benchmark and extracts the standard
// counters plus the derived throughput metric.
func microBench(name string, fn func(b *testing.B), perOpEvent, hasBytes bool) microResult {
	r := testing.Benchmark(fn)
	m := microResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if perOpEvent && m.NsPerOp > 0 {
		m.EventsPerSec = 1e9 / m.NsPerOp
	}
	if hasBytes && r.T > 0 {
		m.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	return m
}

// benchEngineScheduleFire mirrors internal/engine.BenchmarkEngineScheduleFire:
// 64 self-rescheduling components, one Schedule+Step per op.
func benchEngineScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := engine.New()
	const comps = 64
	fns := make([]func(), comps)
	for i := range fns {
		i := i
		delta := int64(i%13 + 1)
		fns[i] = func() { e.After(delta, fns[i]) }
	}
	for i, fn := range fns {
		e.Schedule(int64(i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// benchDRAMRowHitStream mirrors internal/dram.BenchmarkDRAMRowHitStream:
// one op is one read transaction end to end on an open row.
func benchDRAMRowHitStream(b *testing.B) {
	b.ReportAllocs()
	eng := engine.New()
	iface := &stats.Interface{Name: "bench"}
	tm := config.PaperHBMTiming()
	tm.TREFI = 0
	c := dram.NewController(eng, config.DRAM{
		Name: "bench",
		Geometry: config.DRAMGeometry{Channels: 1, RanksPerChan: 1,
			BanksPerRank: 4, RowBytes: 2048, BusBytes: 16, CapacityB: 1 << 30},
		Timing: tm,
	}, iface)
	noop := func(int64) {}
	b.ResetTimer()
	const batch = 256
	for n := 0; n < b.N; {
		m := batch
		if rem := b.N - n; rem < m {
			m = rem
		}
		for j := 0; j < m; j++ {
			c.Read(mem.Addr((j%32)<<mem.BlockShift), 64, noop)
		}
		eng.Run()
		n += m
	}
}

// benchTraceRoundTrip mirrors internal/trace.BenchmarkTraceRoundTrip:
// one op encodes a deterministic 4×50k-record trace into a reused
// buffer and decodes it back through reused Encoder/Decoder instances
// (steady state: stream backing arrays and bufio buffers survive ops).
func benchTraceRoundTrip(b *testing.B) {
	t := &trace.Trace{Name: "bench"}
	for s := 0; s < 4; s++ {
		var bld trace.Builder
		for i := 0; i < 50000; i++ {
			bld.Work(i % 7)
			addr := mem.Addr((s<<24 | i) * mem.BlockSize)
			if i%5 == 0 {
				bld.Store(addr)
			} else {
				bld.Load(addr)
			}
		}
		t.Streams = append(t.Streams, bld.Stream())
	}
	enc, dec := trace.NewEncoder(), trace.NewDecoder()
	var buf bytes.Buffer
	if err := enc.Encode(&buf, t); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	rd := bytes.NewReader(buf.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(&buf, t); err != nil {
			b.Fatal(err)
		}
		rd.Reset(buf.Bytes())
		if _, err := dec.Decode(rd); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTelemetrySample mirrors internal/obs.BenchmarkTelemetrySample:
// one op snapshots a ~50-probe registry into the ring series.
func benchTelemetrySample(b *testing.B) {
	b.ReportAllocs()
	tel, err := obs.New(obs.Options{EpochCycles: 100, SeriesCap: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "t",
		"u", "v", "w", "x", "y"}
	var cnt int64
	for _, n := range names {
		tel.Reg.Counter("bench."+n+".count", func() int64 { return cnt })
		tel.Reg.Gauge("bench."+n+".gauge", func() int64 { return cnt })
	}
	tel.Start()
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100
		cnt++
		tel.Sample(now)
	}
}

// benchTracerEmitDisabled mirrors internal/obs.BenchmarkTracerEmitDisabled:
// the telemetry-off cost every instrumented hot path pays.
func benchTracerEmitDisabled(b *testing.B) {
	b.ReportAllocs()
	var tr *obs.Tracer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(obs.EvBypass, uint64(i), 1, 2)
	}
}

// benchCheckpointSaveRestore measures the per-snapshot container cost:
// one op encodes a real tiny-machine checkpoint (manifest JSON +
// payload + sha256 trailer) and decodes it back through the full
// integrity checks.  The payload comes from an actual LU/RedCache run
// snapshotted mid-flight, so the measured bytes are what a periodic
// snapshot of a live machine writes — the number that, against the
// cadence, says what fraction of a run's wall time checkpointing buys
// crash resilience for.
func benchCheckpointSaveRestore(b *testing.B) {
	dir, err := os.MkdirTemp("", "redbench-ckpt")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := config.Default()
	spec, err := workloads.ByLabel("LU")
	if err != nil {
		b.Fatal(err)
	}
	tr := spec.Gen(cfg.CPU.Cores, workloads.Tiny, 1)
	path := filepath.Join(dir, "bench.ckpt")
	if _, err := sim.Run(cfg, hbm.ArchRedCache, tr, &sim.Options{
		CkptPath: path, CkptPeriod: 20_000,
	}); err != nil {
		b.Fatal(err)
	}
	man, payload, err := ckpt.LoadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	data, err := ckpt.Encode(man, payload)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err = ckpt.Encode(man, payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ckpt.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEndToEnd runs one whole (workload, arch) simulation at small
// scale and reports engine-event throughput.  The simulation itself is
// deterministic (the trace is immutable, so every repetition replays
// the identical run); only the wall-clock denominator varies, which is
// why each row is best-of-e2eReps after an untimed warmup.
func benchEndToEnd(workload string, arch hbm.Arch) e2eResult {
	cfg := config.Default()
	spec, err := workloads.ByLabel(workload)
	fatalIf(err)
	tr := spec.Gen(cfg.CPU.Cores, workloads.Small, 1)

	// Warmup: populates the page cache and allocator arenas so the first
	// timed repetition isn't charged for cold-start costs.
	res, err := sim.Run(cfg, arch, tr, nil)
	fatalIf(err)
	best := math.Inf(1)
	for rep := 0; rep < e2eReps; rep++ {
		start := time.Now() //redvet:wallclock — benchmark timing, never feeds simulated state
		res, err = sim.Run(cfg, arch, tr, nil)
		fatalIf(err)
		if w := time.Since(start).Seconds(); w < best { //redvet:wallclock — benchmark timing, never feeds simulated state
			best = w
		}
	}
	return e2eResult{
		Workload:     workload,
		Arch:         string(arch),
		Scale:        "small",
		Cycles:       res.Cycles,
		EventsFired:  res.EventsFired,
		WallSeconds:  best,
		EventsPerSec: float64(res.EventsFired) / best,
	}
}
