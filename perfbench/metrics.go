package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions (metrics_test.go keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics come from untraced runs.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer metrics come from the traced pass; each is documented in
// README.md with the end-to-end metric it should move.
var perLayer = []metricDef{
	{"engine.self_s", "s", "lower"},
	{"dram.self_s", "s", "lower"},
	{"cache.self_s", "s", "lower"},
	{"cpu.self_s", "s", "lower"},
	{"hbm.self_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"experiments.self_s", "s", "lower"},
	{"workloads.self_s", "s", "lower"},
	{"runtime.self_s", "s", "lower"},
	{"other.self_s", "s", "lower"},
	{"profile.coverage", "ratio", "higher"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"sim.run_p50_s", "s", "lower"},
	{"sim.run_p90_s", "s", "lower"},
	{"sim.run_max_s", "s", "lower"},
	{"experiments.busy_frac", "ratio", "higher"},
	{"engine.events_fired", "count", "lower"},
	{"engine.ns_per_event", "ns", "lower"},
	{"engine.pending_mean", "count", "lower"},
	{"sim.cycles", "count", "lower"},
	{"cpu.instructions", "count", "higher"},
	{"cpu.load_stall_cycles", "count", "lower"},
	{"cache.l3_accesses", "count", "lower"},
	{"cache.l3_miss_rate", "ratio", "lower"},
	{"hbm.requests", "count", "lower"},
	{"hbm.demand_hit_rate", "ratio", "higher"},
	{"hbm.fills", "count", "lower"},
	{"hbm.tag_probes", "count", "lower"},
	{"hbm.direct_to_mem", "count", "lower"},
	{"dram.hbm_requests", "count", "lower"},
	{"dram.ddr_requests", "count", "lower"},
	{"dram.hbm_row_hit_rate", "ratio", "higher"},
	{"dram.ddr_row_hit_rate", "ratio", "higher"},
	{"dram.hbm_bus_util", "ratio", "higher"},
	{"dram.ddr_bus_util", "ratio", "higher"},
	{"dram.hbm_queue_depth_mean", "count", "lower"},
	{"dram.ddr_queue_depth_mean", "count", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"workloads.records", "count", "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeSummary prints the result line: exactly the metrics in defs, each
// of which must have a finite value.
func writeSummary(w io.Writer, correct bool, attempted, failed int, defs []metricDef, vals map[string]float64) error {
	s := summary{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
		s.Metrics[d.name] = metricValue{v, d.unit}
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is n/d, or 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}
