package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"redcache/internal/config"
	"redcache/internal/experiments"
	"redcache/internal/hbm"
	"redcache/internal/obs"
	"redcache/internal/sim"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// workload is one benchmark input: the traces it generates and the
// (trace, architecture) runs it simulates.  README.md records why each
// was chosen.
type workload struct {
	name   string
	scale  workloads.Scale
	labels []string
	archs  []hbm.Arch
	// sweep runs the configs as the paper's evaluation does: Fig 9 plus
	// Fig 2a through an experiments.Suite on one worker per CPU, with the
	// Suite generating its own traces inside the timed part.  Otherwise
	// each config is one sim.Run on the set-up trace.
	sweep bool
}

var benchWorkloads = []workload{
	{name: "paper-sweep", scale: workloads.Small, labels: workloads.Labels(), archs: hbm.All(), sweep: true},
	{name: "fill-stream", scale: workloads.Default, labels: []string{"HIST"}, archs: []hbm.Arch{hbm.ArchAlloy}},
	{name: "reuse-redcache", scale: workloads.Default, labels: []string{"LU"}, archs: []hbm.Arch{hbm.ArchRedCache}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range benchWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type runConfig struct {
	label string
	arch  hbm.Arch
}

// configs lists the workload's runs label-major, in catalog order.
func (w workload) configs() []runConfig {
	var out []runConfig
	for _, l := range w.labels {
		for _, a := range w.archs {
			out = append(out, runConfig{l, a})
		}
	}
	return out
}

const (
	// setupReps trace generations are timed per process; setup_s is
	// their median.
	setupReps = 15
	// epochCycles is the telemetry sampling period of the traced pass,
	// giving thousands of samples per default-scale run; seriesCap
	// epochs (67M cycles) hold the longest run without dropping any.
	epochCycles = 4096
	seriesCap   = 16384
	// coverageTolerance bounds |profile.coverage - 1| on the single-run
	// workloads, where every CPU sample belongs to the simulation.
	coverageTolerance = 0.05
)

// bench is one process's state for one workload and seed.
type bench struct {
	w       workload
	seed    int64
	sys     *config.System
	configs []runConfig
	traces  map[string]*trace.Trace
	workers int // concurrent simulations in a timed repetition
	led     *ledger
}

// rep is one timed repetition of the workload.
type rep struct {
	wall     float64   // seconds
	runTimes []float64 // seconds per sim.Run; nil for the sweep, whose runs the Suite makes
	peakHeap uint64    // bytes
	alloc    uint64    // bytes
	gcs      uint64
	cpu      float64 // process CPU seconds
	results  []*sim.Result
}

// outcome is what measure hands back for printing.
type outcome struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
}

func measure(w workload, seed int64, seconds float64, traced bool, stdout, stderr io.Writer) (*outcome, error) {
	b := &bench{w: w, seed: seed, sys: config.Default(), configs: w.configs(), workers: 1}
	if w.sweep {
		b.workers = runtime.NumCPU()
	}
	setup, err := b.setup()
	if err != nil {
		return nil, err
	}
	want := map[string]int64{}
	records := 0
	for l, t := range b.traces {
		want[l] = instructions(t)
		records += t.Records()
	}
	b.led = newLedger(b.configs, want, stderr)

	// Repeat while the next repetition, judged by the last one, would end
	// less than half a repetition past the budget.  An untraced process
	// runs at least two: every config's digest is then checked against a
	// second run, and the paper sweep's wall time, which drifts with the
	// host over tens of seconds, is measured over two Suites.  A traced
	// process checks against its traced repetition instead.
	minReps := 2
	if traced {
		minReps = 1
	}
	var reps []rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds()+reps[len(reps)-1].wall/2 < seconds {
		r, err := b.timedRep(nil, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}

	var walls, heaps, allocs, gcs []float64
	for _, r := range reps {
		walls = append(walls, r.wall)
		heaps = append(heaps, float64(r.peakHeap)/1e6)
		allocs = append(allocs, float64(r.alloc)/1e6)
		gcs = append(gcs, float64(r.gcs))
	}
	wall := median(walls)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d configs=%d reps=%d wall_s=%v digest=%s\n",
		w.name, seed, len(b.configs), len(reps), walls, b.led.workloadDigest())

	out := &outcome{values: map[string]float64{
		"wall_s":       wall,
		"setup_s":      setup,
		"peak_heap_mb": median(heaps),
	}}
	correct := true
	if traced {
		ok, err := b.tracedPass(out.values, reps, stderr)
		if err != nil {
			return nil, err
		}
		correct = ok
		v := out.values
		v["runtime.alloc_mb"] = median(allocs)
		v["runtime.gc_cycles"] = median(gcs)
		v["workloads.records"] = float64(records)
	}
	out.attempted, out.failed = b.led.attempted, b.led.failed
	out.correct = correct && out.failed == 0
	return out, nil
}

// cfg returns a private copy of the system configuration for one run,
// as the experiments Suite does.
func (b *bench) cfg() *config.System {
	c := *b.sys
	return &c
}

// setup generates the workload's traces setupReps times and returns the
// median generation time in seconds; the last traces are kept.
func (b *bench) setup() (float64, error) {
	specs := make([]workloads.Spec, len(b.w.labels))
	for i, l := range b.w.labels {
		s, err := workloads.ByLabel(l)
		if err != nil {
			return 0, err
		}
		specs[i] = s
	}
	var times []float64
	for r := 0; r < setupReps; r++ {
		b.traces = nil
		runtime.GC()
		t0 := time.Now()
		traces := make(map[string]*trace.Trace, len(specs))
		for _, s := range specs {
			traces[s.Label] = s.Gen(b.sys.CPU.Cores, b.w.scale, b.seed)
		}
		times = append(times, time.Since(t0).Seconds())
		b.traces = traces
	}
	return median(times), nil
}

// timedRep runs every config once, from a freshly collected heap, and
// records each run in the ledger.  With a non-nil prof it writes a CPU
// profile of the repetition there; with a non-nil tel the runs carry
// telemetry, which is added to tel.
func (b *bench) timedRep(prof io.Writer, tel *telemetryTotals) (rep, error) {
	runtime.GC()
	r := rep{results: make([]*sim.Result, len(b.configs))}
	cpu0 := cpuSeconds()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return r, err
		}
	}
	m := startMeter()
	var errs []error
	if b.w.sweep {
		errs = b.suite(r.results)
	} else {
		r.runTimes, errs = b.runAll(r.results, tel)
	}
	r.wall, r.peakHeap, r.alloc, r.gcs = m.stop()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	r.cpu = cpuSeconds() - cpu0
	for i := range b.configs {
		b.led.record(i, r.results[i], errs[i])
	}
	return r, nil
}

// suite regenerates the paper's Fig 9 and Fig 2a, which together run
// every config, and collects the memoized results.
func (b *bench) suite(out []*sim.Result) []error {
	s := experiments.NewSuite(b.w.scale)
	s.Seed = b.seed
	s.Parallel = b.workers
	s.Workloads = b.w.labels
	_, err := s.Fig9()
	if err == nil {
		_, err = s.Fig2a()
	}
	errs := make([]error, len(b.configs))
	for i, c := range b.configs {
		if err != nil {
			errs[i] = err
			continue
		}
		out[i], errs[i] = s.Result(c.label, c.arch) // memoized: no simulation
	}
	return errs
}

// runAll runs every config on b.workers goroutines, as the Suite does,
// timing each sim.Run.  With a non-nil tel the runs carry telemetry,
// which is added to tel and dropped.
func (b *bench) runAll(out []*sim.Result, tel *telemetryTotals) ([]float64, []error) {
	times := make([]float64, len(b.configs))
	errs := make([]error, len(b.configs))
	next := make(chan int)
	var mu sync.Mutex // guards tel
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := b.configs[i]
				t0 := time.Now()
				out[i], errs[i] = sim.Run(b.cfg(), c.arch, b.traces[c.label], telemetryOpts(tel))
				times[i] = time.Since(t0).Seconds()
				if tel != nil && errs[i] == nil {
					mu.Lock()
					errs[i] = tel.add(out[i])
					mu.Unlock()
					out[i].Telemetry = nil
				}
			}
		}()
	}
	for i := range b.configs {
		next <- i
	}
	close(next)
	wg.Wait()
	return times, errs
}

// tracedPass profiles one more repetition and fills the per-layer
// metrics into v from it and from the untraced reps.  It reports false
// when the profile does not account for the process's CPU time on a
// single-run workload.
func (b *bench) tracedPass(v map[string]float64, reps []rep, log io.Writer) (bool, error) {
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.wall)
	}
	wall := median(walls)
	tel := &telemetryTotals{}
	var prof bytes.Buffer
	tr, err := b.timedRep(&prof, tel) // the Suite takes no telemetry; the sweep's timed-call pass below has it
	if err != nil {
		return false, err
	}
	self, err := selfSeconds(prof.Bytes())
	if err != nil {
		return false, err
	}
	total := 0.0
	for _, l := range layers {
		v[l+".self_s"] = self[l]
		total += self[l]
	}
	coverage := ratio(total, tr.cpu)
	v["profile.coverage"] = coverage
	v["bench.trace_overhead_frac"] = tr.wall/wall - 1
	ok := true
	if !b.w.sweep && (coverage < 1-coverageTolerance || coverage > 1+coverageTolerance) {
		fmt.Fprintf(log, "perfbench: profile covers %.3f of %.2f CPU seconds\n", coverage, tr.cpu)
		ok = false
	}

	// runTimes are per-sim.Run host times, busy the busy fraction of each
	// repetition's workers, and events the simulated events those runs
	// fired.
	var runTimes, busy []float64
	var events float64
	if b.w.sweep {
		// The Suite's runs cannot be timed from outside it: run the
		// configs again on as many workers, timing each sim.Run.
		runs := make([]*sim.Result, len(b.configs))
		var errs []error
		runTimes, errs = b.runAll(runs, tel)
		for i := range b.configs {
			b.led.record(i, runs[i], errs[i])
		}
		busy = []float64{sum(runTimes) / (float64(b.workers) * wall)}
		events = firedBy(runs)
	} else {
		for _, r := range reps {
			runTimes = append(runTimes, r.runTimes...)
			busy = append(busy, sum(r.runTimes)/r.wall)
			events += firedBy(r.results)
		}
	}
	v["sim.run_p50_s"] = quantile(runTimes, 0.5)
	v["sim.run_p90_s"] = quantile(runTimes, 0.9)
	v["sim.run_max_s"] = quantile(runTimes, 1)
	v["experiments.busy_frac"] = median(busy)
	v["engine.ns_per_event"] = ratio(sum(runTimes)*1e9, events)

	if err := addSimCounts(v, b.sys, reps[0].results); err != nil {
		return false, err
	}
	tel.fill(v)
	return ok, nil
}

// firedBy sums the engine events of runs.
func firedBy(runs []*sim.Result) float64 {
	n := 0.0
	for _, r := range runs {
		if r != nil {
			n += float64(r.EventsFired)
		}
	}
	return n
}

// addSimCounts sums the simulated counters of one repetition's runs.
// Bus utilisation is per channel.
func addSimCounts(v map[string]float64, sys *config.System, results []*sim.Result) error {
	var c struct {
		events, cycles, instr, l3Acc, l3Miss           float64
		hbmReq, hit, demand, fills, probes, direct     float64
		hbmDram, hbmRowHit, hbmCol, hbmBusy, hbmCycles float64
		ddrDram, ddrRowHit, ddrCol, ddrBusy            float64
	}
	for _, r := range results {
		if r == nil {
			return fmt.Errorf("a run failed; simulated counts are incomplete")
		}
		c.events += float64(r.EventsFired)
		c.cycles += float64(r.Cycles)
		c.instr += float64(r.Instructions)
		c.l3Acc += float64(r.L3.Accesses())
		c.l3Miss += float64(r.L3.Misses)
		c.hbmReq += float64(r.Ctl.Reads + r.Ctl.Writes)
		c.hit += float64(r.Ctl.Demand.Hits)
		c.demand += float64(r.Ctl.Demand.Accesses())
		c.fills += float64(r.Ctl.Fills)
		c.probes += float64(r.Ctl.TagProbes)
		c.direct += float64(r.Ctl.DirectToMem)
		if r.Arch != hbm.ArchNoHBM {
			c.hbmDram += float64(r.HBMIface.Requests)
			c.hbmRowHit += float64(r.HBMIface.RowHits)
			c.hbmCol += float64(r.HBMIface.RowHits + r.HBMIface.RowMisses)
			c.hbmBusy += float64(r.HBMIface.BusyCycles)
			c.hbmCycles += float64(r.Cycles)
		}
		c.ddrDram += float64(r.DDRIface.Requests)
		c.ddrRowHit += float64(r.DDRIface.RowHits)
		c.ddrCol += float64(r.DDRIface.RowHits + r.DDRIface.RowMisses)
		c.ddrBusy += float64(r.DDRIface.BusyCycles)
	}
	v["engine.events_fired"] = c.events
	v["sim.cycles"] = c.cycles
	v["cpu.instructions"] = c.instr
	v["cache.l3_accesses"] = c.l3Acc
	v["cache.l3_miss_rate"] = ratio(c.l3Miss, c.l3Acc)
	v["hbm.requests"] = c.hbmReq
	v["hbm.demand_hit_rate"] = ratio(c.hit, c.demand)
	v["hbm.fills"] = c.fills
	v["hbm.tag_probes"] = c.probes
	v["hbm.direct_to_mem"] = c.direct
	v["dram.hbm_requests"] = c.hbmDram
	v["dram.ddr_requests"] = c.ddrDram
	v["dram.hbm_row_hit_rate"] = ratio(c.hbmRowHit, c.hbmCol)
	v["dram.ddr_row_hit_rate"] = ratio(c.ddrRowHit, c.ddrCol)
	v["dram.hbm_bus_util"] = ratio(c.hbmBusy, c.hbmCycles*float64(sys.HBM.Geometry.Channels))
	v["dram.ddr_bus_util"] = ratio(c.ddrBusy, c.cycles*float64(sys.MainMem.Geometry.Channels))
	return nil
}

// telemetryOpts enables cycle-domain telemetry when tel collects it.
func telemetryOpts(tel *telemetryTotals) *sim.Options {
	if tel == nil {
		return nil
	}
	return &sim.Options{Telemetry: &obs.Options{EpochCycles: epochCycles, SeriesCap: seriesCap}}
}

// telemetryGauges are the gauge probes whose mean over every sampled
// epoch of every traced run is reported, with their metric names.
var telemetryGauges = [...]struct{ probe, metric string }{
	{"engine.pending", "engine.pending_mean"},
	{"hbm.queue_depth", "dram.hbm_queue_depth_mean"},
	{"ddr.queue_depth", "dram.ddr_queue_depth_mean"},
}

// telemetryTotals accumulates the traced runs' epoch series.
type telemetryTotals struct {
	sums, samples [len(telemetryGauges)]float64
	stalls        float64
}

func (t *telemetryTotals) add(r *sim.Result) error {
	s := r.Telemetry.Series()
	if s.DroppedRows > 0 {
		return fmt.Errorf("telemetry dropped %d epochs", s.DroppedRows)
	}
	for row := 0; row < s.Rows(); row++ {
		for i, g := range telemetryGauges {
			if x, ok := s.Value(row, g.probe); ok {
				t.sums[i] += x
				t.samples[i]++
			}
		}
		x, _ := s.Value(row, "cpu.load_stall_cycles")
		t.stalls += x
	}
	return nil
}

func (t *telemetryTotals) fill(v map[string]float64) {
	for i, g := range telemetryGauges {
		v[g.metric] = ratio(t.sums[i], t.samples[i])
	}
	v["cpu.load_stall_cycles"] = t.stalls
}

// meter measures one timed region: wall time, peak heap in use (sampled
// every millisecond), bytes allocated and GC cycles completed.
type meter struct {
	start      time.Time
	alloc, gcs uint64
	peak       uint64
	quit, done chan struct{}
}

var meterMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/memory/classes/heap/objects:bytes"}

func readMetrics() (alloc, gcs, heap uint64) {
	s := make([]metrics.Sample, len(meterMetrics))
	for i, n := range meterMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func startMeter() *meter {
	m := &meter{quit: make(chan struct{}), done: make(chan struct{})}
	m.alloc, m.gcs, m.peak = readMetrics()
	go func() {
		defer close(m.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-tick.C:
				metrics.Read(heap)
				if h := heap[0].Value.Uint64(); h > m.peak {
					m.peak = h
				}
			}
		}
	}()
	m.start = time.Now()
	return m
}

// stop ends the region and returns wall seconds, peak heap bytes, bytes
// allocated and GC cycles.
func (m *meter) stop() (wall float64, peak, alloc, gcs uint64) {
	wall = time.Since(m.start).Seconds()
	close(m.quit)
	<-m.done
	a, g, h := readMetrics()
	if h > m.peak {
		m.peak = h
	}
	return wall, m.peak, a - m.alloc, g - m.gcs
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
