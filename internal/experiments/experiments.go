// Package experiments regenerates every figure and table of the paper's
// evaluation (§II and §IV): the bandwidth-efficiency scatter of Fig 2,
// the homo-reuse histograms of Fig 3, and the execution-time and energy
// comparisons of Figs 9-11, plus the §II-C and §III-C statistics quoted
// in the text.  Results are memoized so figures sharing (workload,
// architecture) pairs reuse them, and independent runs execute in
// parallel; traces live only while a queued run needs them.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"redcache/internal/config"
	"redcache/internal/dram"
	"redcache/internal/hbm"
	"redcache/internal/sim"
	"redcache/internal/stats"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// Suite runs and memoizes simulations for one configuration.  It keeps
// results, never traces: a batch of runs generates each workload's
// trace on first need and drops it when the batch's last run of that
// workload is done.
type Suite struct {
	Sys      *config.System
	Scale    workloads.Scale
	Seed     int64
	Parallel int
	// Workloads restricts the benchmark set (labels); nil means all 11.
	Workloads []string
	// Progress, when set, receives a line per completed run.
	Progress func(msg string)
	// InvariantCycles, when > 0, runs the online invariant checker at
	// this period in every simulation.
	InvariantCycles int64
	// MaxCycles, when > 0, arms the cycle-budget watchdog on every run.
	MaxCycles int64

	mu      sync.Mutex
	results map[runKey]*sim.Result
}

type runKey struct {
	workload    string
	arch        hbm.Arch
	granularity int
}

// NewSuite builds a Suite over the default evaluation configuration.
func NewSuite(sc workloads.Scale) *Suite {
	return &Suite{
		Sys:      config.Default(),
		Scale:    sc,
		Seed:     1,
		Parallel: runtime.GOMAXPROCS(0),
	}
}

// Labels returns the workload set in Table II order.
func (s *Suite) Labels() []string {
	if s.Workloads != nil {
		return s.Workloads
	}
	return workloads.Labels()
}

// generate builds one workload's trace.  Tests replace it to count and
// watch the traces a Suite makes.
var generate = func(spec workloads.Spec, cores int, sc workloads.Scale, seed int64) *trace.Trace {
	return spec.Gen(cores, sc, seed)
}

// genTrace generates label's trace for the suite's configuration.  The
// caller owns it; the Suite keeps no reference.
func (s *Suite) genTrace(label string) (*trace.Trace, error) {
	spec, err := workloads.ByLabel(label)
	if err != nil {
		return nil, err
	}
	return generate(spec, s.Sys.CPU.Cores, s.Scale, s.Seed), nil
}

// batchTraces lends workload traces to the runs of one batch.  A trace
// is generated when the first of its runs asks for it and dropped when
// the last one is done, so a batch whose runs are workload-major holds
// at most Parallel+1 traces at once.
type batchTraces struct {
	s    *Suite
	refs map[string]*traceRef // read-only once the batch starts
	mu   sync.Mutex           // guards every traceRef's users and its drop
}

type traceRef struct {
	once  sync.Once
	t     *trace.Trace
	err   error
	users int // runs of the batch not yet done with the trace
}

// newBatchTraces registers one use per entry of labels (one per run).
func (s *Suite) newBatchTraces(labels []string) *batchTraces {
	b := &batchTraces{s: s, refs: make(map[string]*traceRef)}
	for _, l := range labels {
		r := b.refs[l]
		if r == nil {
			r = &traceRef{}
			b.refs[l] = r
		}
		r.users++
	}
	return b
}

// get returns label's trace, generating it on first use.  Generation
// holds no Suite lock, so other workers keep storing results meanwhile.
func (b *batchTraces) get(label string) (*trace.Trace, error) {
	r := b.refs[label]
	r.once.Do(func() { r.t, r.err = b.s.genTrace(label) })
	return r.t, r.err
}

// done releases one run's use of label's trace; the last release drops
// it.  Every registered run calls done exactly once, used or not.
func (b *batchTraces) done(label string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.refs[label]
	if r.users--; r.users == 0 {
		r.t = nil
	}
}

// Result returns the memoized result for one run, simulating on demand.
func (s *Suite) Result(label string, arch hbm.Arch) (*sim.Result, error) {
	return s.resultG(label, arch, s.Sys.Granularity)
}

func (s *Suite) resultG(label string, arch hbm.Arch, gran int) (*sim.Result, error) {
	key := runKey{label, arch, gran}
	if r := s.memoized(key); r != nil {
		return r, nil
	}
	t, err := s.genTrace(label)
	if err != nil {
		return nil, err
	}
	return s.simulate(key, t)
}

// memoized returns key's result, or nil when it has not run yet.
func (s *Suite) memoized(key runKey) *sim.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.results[key]
}

// simulate runs key on t and memoizes the result.
func (s *Suite) simulate(key runKey, t *trace.Trace) (*sim.Result, error) {
	cfg := *s.Sys // shallow copy; granularity differs per run
	cfg.Granularity = key.granularity
	res, err := sim.Run(&cfg, key.arch, t, s.runOpts())
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", key.workload, key.arch, err)
	}
	s.mu.Lock()
	if prior, ok := s.results[key]; ok {
		// A racing worker memoized this key while we simulated; keep
		// the first result so every caller sees one instance.  (The
		// duplicate work is identical anyway — runs are deterministic.)
		s.mu.Unlock()
		return prior, nil
	}
	if s.results == nil {
		s.results = make(map[runKey]*sim.Result)
	}
	s.results[key] = res
	s.mu.Unlock()
	if s.Progress != nil {
		s.Progress(fmt.Sprintf("done %s/%s (gran %dB): %d cycles", key.workload, key.arch, key.granularity, res.Cycles))
	}
	return res, nil
}

// runOpts builds the per-run options from the suite-wide invariant and
// watchdog settings; nil when neither is set.
func (s *Suite) runOpts() *sim.Options {
	if s.InvariantCycles <= 0 && s.MaxCycles <= 0 {
		return nil
	}
	return &sim.Options{InvariantCycles: s.InvariantCycles, MaxCycles: s.MaxCycles}
}

// runAll executes the given runs, bounded by s.Parallel workers, and
// returns the first error in key order.  Keys must be workload-major
// for the batch to hold at most Parallel+1 traces; a workload whose
// runs are all memoized is never generated.
func (s *Suite) runAll(keys []runKey) error {
	labels := make([]string, len(keys))
	for i, k := range keys {
		labels[i] = k.workload
	}
	traces := s.newBatchTraces(labels)
	return s.forEach(len(keys), func(i int) error {
		k := keys[i]
		defer traces.done(k.workload)
		if s.memoized(k) != nil {
			return nil
		}
		t, err := traces.get(k.workload)
		if err != nil {
			return err
		}
		_, err = s.simulate(k, t)
		return err
	})
}

// forEach calls fn(0), …, fn(n-1) on min(s.Parallel, n) workers, which
// take the indices in order, and returns the error of the lowest index
// that failed.  Every index runs, failed or not.  Each fn must publish
// its result by its index (or into the runKey memo), never in
// completion order.
func (s *Suite) forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(max(s.Parallel, 1), n) {
		wg.Add(1)
		// Harness fan-out only: each worker runs isolated simulations
		// and publishes by index or into the runKey-keyed memo;
		// consumers read in their own deterministic order, so
		// scheduling never reaches reported bytes.
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	// Barrier only: every post-Wait read walks indices or fixed config
	// lists, not completion order.
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Geomean computes the geometric mean of xs.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// NormalizedSeries is one figure's data: per-workload values for several
// architectures, normalized to a baseline architecture.
type NormalizedSeries struct {
	Title     string
	Baseline  hbm.Arch
	Archs     []hbm.Arch
	Workloads []string
	// Values[workload][arch] is the normalized metric (lower is better).
	Values map[string]map[hbm.Arch]float64
	// Mean[arch] is the geometric mean across workloads.
	Mean map[hbm.Arch]float64
}

// normalizedFigure runs archs x workloads, extracts metric, normalizes to
// baseline per workload, and fills means.
func (s *Suite) normalizedFigure(title string, baseline hbm.Arch, archs []hbm.Arch,
	metric func(*sim.Result) float64) (*NormalizedSeries, error) {
	labels := s.Labels()
	var keys []runKey
	for _, w := range labels {
		for _, a := range archs {
			keys = append(keys, runKey{w, a, s.Sys.Granularity})
		}
	}
	if err := s.runAll(keys); err != nil {
		return nil, err
	}
	out := &NormalizedSeries{
		Title: title, Baseline: baseline, Archs: archs, Workloads: labels,
		Values: make(map[string]map[hbm.Arch]float64),
		Mean:   make(map[hbm.Arch]float64),
	}
	for _, w := range labels {
		base, err := s.Result(w, baseline)
		if err != nil {
			return nil, err
		}
		row := make(map[hbm.Arch]float64)
		for _, a := range archs {
			r, err := s.Result(w, a)
			if err != nil {
				return nil, err
			}
			row[a] = metric(r) / metric(base)
		}
		out.Values[w] = row
	}
	for _, a := range archs {
		var xs []float64
		for _, w := range labels {
			xs = append(xs, out.Values[w][a])
		}
		out.Mean[a] = Geomean(xs)
	}
	return out, nil
}

// Fig9 reproduces "Relative execution time" normalized to Alloy.
func (s *Suite) Fig9() (*NormalizedSeries, error) {
	return s.normalizedFigure("Fig 9: execution time normalized to Alloy",
		hbm.ArchAlloy, hbm.Figure9Archs(),
		func(r *sim.Result) float64 { return float64(r.Cycles) })
}

// Fig10 reproduces "Relative HBM cache energy" normalized to Alloy.
func (s *Suite) Fig10() (*NormalizedSeries, error) {
	return s.normalizedFigure("Fig 10: HBM cache energy normalized to Alloy",
		hbm.ArchAlloy, hbm.Figure9Archs(),
		func(r *sim.Result) float64 { return r.Energy.HBMCache() })
}

// Fig11 reproduces "Relative system energy" normalized to Alloy.
func (s *Suite) Fig11() (*NormalizedSeries, error) {
	return s.normalizedFigure("Fig 11: system energy normalized to Alloy",
		hbm.ArchAlloy, hbm.Figure9Archs(),
		func(r *sim.Result) float64 { return r.Energy.System() })
}

// Fig2aPoint is one topology design point of Fig 2(a), normalized to
// No-HBM: relative transferred data (x), relative aggregate bandwidth
// (y), and relative performance.
type Fig2aPoint struct {
	Arch    hbm.Arch
	RelData float64
	RelBW   float64
	RelPerf float64 // speedup over No-HBM
}

// Fig2a reproduces the system-topology bandwidth-efficiency study.
func (s *Suite) Fig2a() ([]Fig2aPoint, error) {
	archs := []hbm.Arch{hbm.ArchNoHBM, hbm.ArchIdeal, hbm.ArchAlloy}
	labels := s.Labels()
	var keys []runKey
	for _, w := range labels {
		for _, a := range archs {
			keys = append(keys, runKey{w, a, s.Sys.Granularity})
		}
	}
	if err := s.runAll(keys); err != nil {
		return nil, err
	}
	var out []Fig2aPoint
	for _, a := range archs {
		var data, bw, perf []float64
		for _, w := range labels {
			base, err := s.Result(w, hbm.ArchNoHBM)
			if err != nil {
				return nil, err
			}
			r, err := s.Result(w, a)
			if err != nil {
				return nil, err
			}
			data = append(data, float64(r.TransferredBytes())/float64(base.TransferredBytes()))
			bw = append(bw, r.AggregateBandwidth()/base.AggregateBandwidth())
			perf = append(perf, float64(base.Cycles)/float64(r.Cycles))
		}
		out = append(out, Fig2aPoint{
			Arch: a, RelData: Geomean(data), RelBW: Geomean(bw), RelPerf: Geomean(perf),
		})
	}
	return out, nil
}

// Fig2bPoint is one granularity design point of Fig 2(b), normalized to
// the 64 B configuration of the Alloy-style HBM cache.
type Fig2bPoint struct {
	Granularity int
	RelData     float64
	RelBW       float64
	RelPerf     float64
	HitRate     float64 // absolute demand hit rate
}

// Fig2b reproduces the data-granularity study (64/128/256 B transfers).
func (s *Suite) Fig2b() ([]Fig2bPoint, error) {
	grans := []int{64, 128, 256}
	labels := s.Labels()
	var keys []runKey
	for _, w := range labels {
		for _, g := range grans {
			keys = append(keys, runKey{w, hbm.ArchAlloy, g})
		}
	}
	if err := s.runAll(keys); err != nil {
		return nil, err
	}
	var out []Fig2bPoint
	for _, g := range grans {
		var data, bw, perf, hit []float64
		for _, w := range labels {
			base, err := s.resultG(w, hbm.ArchAlloy, 64)
			if err != nil {
				return nil, err
			}
			r, err := s.resultG(w, hbm.ArchAlloy, g)
			if err != nil {
				return nil, err
			}
			data = append(data, float64(r.TransferredBytes())/float64(base.TransferredBytes()))
			bw = append(bw, r.AggregateBandwidth()/base.AggregateBandwidth())
			perf = append(perf, float64(base.Cycles)/float64(r.Cycles))
			hit = append(hit, r.Ctl.Demand.HitRate())
		}
		out = append(out, Fig2bPoint{
			Granularity: g, RelData: Geomean(data), RelBW: Geomean(bw),
			RelPerf: Geomean(perf), HitRate: mean(hit),
		})
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig3Result is one workload's homo-reuse histogram under No-HBM.
type Fig3Result struct {
	Workload string
	Groups   []stats.Group
	// PeakShare is the bandwidth-cost share of the busiest contiguous
	// 20%-of-reuse-range window — the "narrow range of reuses" claim.
	PeakShare float64
}

// Fig3Workloads are the four panels shown in the paper.
var Fig3Workloads = []string{"LU", "MG", "RDX", "HIST"}

// Fig3 reproduces the bandwidth-cost-vs-reuse histograms: each workload
// runs on the No-HBM topology with a DDR observer attributing exact
// interface cycles to blocks.
func (s *Suite) Fig3(labels []string) ([]Fig3Result, error) {
	if labels == nil {
		labels = Fig3Workloads
	}
	var out []Fig3Result
	for _, w := range labels {
		t, err := s.genTrace(w)
		if err != nil {
			return nil, err
		}
		hist := stats.NewReuseHistogram()
		opts := &sim.Options{
			InvariantCycles: s.InvariantCycles,
			DDRObserver: func(txn *dram.Txn, rowHit bool, cycles int64) {
				// Deliberate cross-component attribution: the Fig 3
				// harness charges exact DDR bus cycles to its own
				// histogram.  The DDR observer is its only writer, and
				// it is deterministic because the engine fires events
				// single-threaded in (cycle, seq) order.
				hist.Observe(uint64(txn.Addr.Block()), cycles)
			},
		}
		cfg := *s.Sys
		if _, err := sim.Run(&cfg, hbm.ArchNoHBM, t, opts); err != nil {
			return nil, err
		}
		groups := hist.Groups()
		sortGroups(groups)
		out = append(out, Fig3Result{
			Workload:  w,
			Groups:    groups,
			PeakShare: peakShare(groups),
		})
	}
	return out, nil
}

// peakShare finds the largest bandwidth-cost share carried by a window
// covering 20% of the observed reuse range.
func peakShare(groups []stats.Group) float64 {
	if len(groups) == 0 {
		return 0
	}
	var total int64
	maxReuse := groups[len(groups)-1].Reuses
	for _, g := range groups {
		total += g.Cost
	}
	if total == 0 {
		return 0
	}
	win := maxReuse / 5
	if win < 1 {
		win = 1
	}
	best := int64(0)
	for _, start := range groups {
		var in int64
		for _, g := range groups {
			if g.Reuses >= start.Reuses && g.Reuses <= start.Reuses+win {
				in += g.Cost
			}
		}
		if in > best {
			best = in
		}
	}
	return float64(best) / float64(total)
}

// sortGroups is kept for deterministic output in reports.
func sortGroups(gs []stats.Group) {
	sort.Slice(gs, func(i, j int) bool { return gs[i].Reuses < gs[j].Reuses })
}
