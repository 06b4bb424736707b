// Package obs is the cycle-domain telemetry subsystem (DESIGN.md §9):
// a probe registry components populate at wire-up, an epoch sampler
// that snapshots every probe into a columnar in-memory time series, a
// structured event trace for the paper's adaptive mechanisms (α/γ
// moves, admissions, bypasses, RCU dispositions), and JSONL/CSV
// exporters.
//
// Everything is driven by the event engine's integer-cycle clock —
// never wall time — so telemetry output is byte-identical across
// repeated, serial and parallel runs.  With telemetry disabled the
// simulator takes no obs path at all (a nil *Tracer's Emit is a
// nil-check and return), preserving the 0 allocs/op hot-path contract;
// with it enabled, one epoch sample performs no allocations once the
// ring storage is warm.
//
// Probe naming follows `component.metric` in lower snake case
// ("red.gamma", "hbm.bandwidth_util", "cpu.instructions").  Counter
// probes read cumulative totals; the sampler stores the per-epoch
// increment.  Gauge probes store the instantaneous value at the sample
// cycle.
package obs

import (
	"fmt"

	"redcache/internal/stats"
)

// probeKind distinguishes how a probe's readings enter the series.
type probeKind uint8

const (
	gaugeInt probeKind = iota
	gaugeFloat
	counterInt
)

// probe is one registered measurement source.  Exactly one of readI /
// readF is set.  prev holds the last cumulative reading of a counter so
// the sampler can store per-epoch deltas.
type probe struct {
	name  string
	kind  probeKind
	readI func() int64
	readF func() float64
	prev  int64
}

// Registry is the named-probe table.  Components register gauges and
// counters once at wire-up; the epoch sampler reads them in
// registration order (the wire-up order is fixed, so the column order —
// and therefore every exported byte — is deterministic).
type Registry struct {
	probes []probe
	index  map[string]int
	sealed bool
}

func (r *Registry) add(p probe) {
	if r.sealed {
		panic("obs: probe registered after sampling started")
	}
	if !validName(p.name) {
		panic(fmt.Sprintf("obs: invalid probe name %q (want component.metric in lower snake case)", p.name))
	}
	if r.index == nil {
		r.index = make(map[string]int)
	}
	if _, dup := r.index[p.name]; dup {
		panic(fmt.Sprintf("obs: duplicate probe %q", p.name))
	}
	r.index[p.name] = len(r.probes)
	r.probes = append(r.probes, p)
}

// validName restricts probe names to lower snake case with dot-separated
// components — the exporters splice names into JSONL/CSV verbatim, so
// the charset must need no escaping.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// Gauge registers an int64 gauge: read returns the instantaneous value
// at each sample cycle.
func (r *Registry) Gauge(name string, read func() int64) {
	r.add(probe{name: name, kind: gaugeInt, readI: read})
}

// GaugeF registers a float64 gauge.
func (r *Registry) GaugeF(name string, read func() float64) {
	r.add(probe{name: name, kind: gaugeFloat, readF: read})
}

// Counter registers a cumulative int64 counter: read returns a
// monotonically non-decreasing total, and the series stores the
// per-epoch increment.
func (r *Registry) Counter(name string, read func() int64) {
	r.add(probe{name: name, kind: counterInt, readI: read})
}

// Len reports the number of registered probes.
func (r *Registry) Len() int { return len(r.probes) }

// Names returns the probe names in registration (column) order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.probes))
	for i := range r.probes {
		out[i] = r.probes[i].name
	}
	return out
}

// Val is a registry-owned int64 cell for components that have no stable
// state a pull closure could read: the component pushes updates through
// Set/Add/Inc and the sampler reads the cell.  Probe cells are the
// sanctioned cross-component telemetry channel — the statspath redvet
// analyzer permits mutating them from hooks and closures, unlike
// component-owned stats counters.
type Val struct{ v int64 }

// Set stores x.
//
//redvet:hotpath
func (v *Val) Set(x int64) { v.v = x }

// Add increments the cell by d.
//
//redvet:hotpath
func (v *Val) Add(d int64) { v.v += d }

// Inc increments the cell by one.
//
//redvet:hotpath
func (v *Val) Inc() { v.v++ }

// Value returns the current cell value.
//
//redvet:hotpath
func (v *Val) Value() int64 { return v.v }

// GaugeCell registers an int64 gauge backed by a push cell and returns
// the cell.
func (r *Registry) GaugeCell(name string) *Val {
	v := &Val{}
	r.Gauge(name, v.Value)
	return v
}

// CounterCell registers a cumulative counter backed by a push cell and
// returns the cell.
func (r *Registry) CounterCell(name string) *Val {
	v := &Val{}
	r.Counter(name, v.Value)
	return v
}

// RatioOf returns a float64 gauge reading the interval ratio num/den
// between consecutive samples: at each sample it computes the increase
// of both cumulative readings since the previous sample and reports
// their quotient (0 while the denominator does not move).
func RatioOf(num, den func() int64) func() float64 {
	var pn, pd int64
	return func() float64 {
		n, d := num(), den()
		dn, dd := n-pn, d-pd
		pn, pd = n, d
		if dd == 0 {
			return 0
		}
		return float64(dn) / float64(dd)
	}
}

// Ratio registers a RatioOf(num, den) gauge: the building block for
// per-epoch hit and piggyback rates.
func (r *Registry) Ratio(name string, num, den func() int64) {
	r.GaugeF(name, RatioOf(num, den))
}

// RegisterInterface registers the standard probe set for one memory
// interface: cumulative traffic counters plus per-epoch bandwidth
// utilization and row-hit rate derived through stats.Interface's
// Snapshot/Delta helpers.  now supplies the current cycle (the epoch
// length denominator for utilization).
func RegisterInterface(r *Registry, prefix string, i *stats.Interface, now func() int64) {
	r.Counter(prefix+".read_bytes", func() int64 { return i.ReadBytes })
	r.Counter(prefix+".write_bytes", func() int64 { return i.WriteBytes })
	r.Counter(prefix+".busy_cycles", func() int64 { return i.BusyCycles })
	r.Counter(prefix+".requests", func() int64 { return i.Requests })
	r.Counter(prefix+".activates", func() int64 { return i.Activates })

	util, utilCycle := i.Snapshot(), int64(0)
	r.GaugeF(prefix+".bandwidth_util", func() float64 {
		d := i.Delta(util)
		t := now()
		elapsed := t - utilCycle
		util, utilCycle = i.Snapshot(), t
		return d.BandwidthUtil(elapsed)
	})
	row := i.Snapshot()
	r.GaugeF(prefix+".row_hit_rate", func() float64 {
		d := i.Delta(row)
		row = i.Snapshot()
		return d.RowHitRate()
	})
}

// RegisterCache registers hit/miss counters and the per-epoch hit rate
// for one cache structure, using stats.CacheStats' Snapshot/Delta.
func RegisterCache(r *Registry, prefix string, c *stats.CacheStats) {
	r.Counter(prefix+".hits", func() int64 { return c.Hits })
	r.Counter(prefix+".misses", func() int64 { return c.Misses })
	prev := c.Snapshot()
	r.GaugeF(prefix+".hit_rate", func() float64 {
		d := c.Delta(prev)
		prev = c.Snapshot()
		return d.HitRate()
	})
}
