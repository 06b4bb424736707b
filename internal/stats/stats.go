// Package stats collects the measurements the paper reports: interface
// traffic and bandwidth, cache hit rates, homo-reuse histograms (Fig 3/4),
// and the last-access-type breakdown (§II-C).
package stats

import (
	"fmt"
	"sort"
)

// Counter is a simple named event counter.
type Counter struct {
	n int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Interface accumulates traffic on one memory interface (WideIO or DDRx).
type Interface struct {
	// Name is an identity label set at construction, not an accumulator:
	// Delta carries it over instead of subtracting it.
	Name       string
	ReadBytes  int64
	WriteBytes int64
	BusyCycles int64 // cycles the data bus carried data
	Requests   int64
	RowHits    int64
	RowMisses  int64
	Activates  int64
	Refreshes  int64
}

// TotalBytes is all data moved over the interface.
func (i *Interface) TotalBytes() int64 { return i.ReadBytes + i.WriteBytes }

// RowHitRate reports the fraction of column accesses that hit an open row.
func (i *Interface) RowHitRate() float64 {
	t := i.RowHits + i.RowMisses
	if t == 0 {
		return 0
	}
	return float64(i.RowHits) / float64(t)
}

// BandwidthUtil reports the fraction of elapsed cycles the bus was busy.
func (i *Interface) BandwidthUtil(elapsed int64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(i.BusyCycles) / float64(elapsed)
}

// Check validates the counters' structural relationships: every counter
// is non-negative, each row miss performed at least one activation, and
// no more column accesses were served than transactions enqueued.  It
// is the stats leg of the opt-in online invariant checker.
func (i *Interface) Check() error {
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"read_bytes", i.ReadBytes}, {"write_bytes", i.WriteBytes},
		{"busy_cycles", i.BusyCycles}, {"requests", i.Requests},
		{"row_hits", i.RowHits}, {"row_misses", i.RowMisses},
		{"activates", i.Activates}, {"refreshes", i.Refreshes},
	} {
		if c.v < 0 {
			return fmt.Errorf("stats: %s %s went negative (%d)", i.Name, c.name, c.v)
		}
	}
	if i.Activates < i.RowMisses {
		return fmt.Errorf("stats: %s activates %d below row misses %d",
			i.Name, i.Activates, i.RowMisses)
	}
	if i.RowHits+i.RowMisses > i.Requests {
		return fmt.Errorf("stats: %s served %d column accesses for only %d requests",
			i.Name, i.RowHits+i.RowMisses, i.Requests)
	}
	return nil
}

// Snapshot returns a copy of the current counters, usable later as the
// baseline for Delta.
func (i *Interface) Snapshot() Interface { return *i }

// Delta returns the traffic accumulated since prev was snapshotted, as
// an Interface carrying the same name.  The interval value supports the
// same derived metrics as the cumulative one, so epoch samplers get
// per-epoch BandwidthUtil/RowHitRate without re-deriving them ad hoc.
func (i *Interface) Delta(prev Interface) Interface {
	return Interface{
		Name:       i.Name,
		ReadBytes:  i.ReadBytes - prev.ReadBytes,
		WriteBytes: i.WriteBytes - prev.WriteBytes,
		BusyCycles: i.BusyCycles - prev.BusyCycles,
		Requests:   i.Requests - prev.Requests,
		RowHits:    i.RowHits - prev.RowHits,
		RowMisses:  i.RowMisses - prev.RowMisses,
		Activates:  i.Activates - prev.Activates,
		Refreshes:  i.Refreshes - prev.Refreshes,
	}
}

// CacheStats counts hits and misses for one cache structure.
type CacheStats struct {
	Hits, Misses int64
	Evictions    int64
	DirtyEvicts  int64
}

// Accesses is Hits+Misses.
func (c *CacheStats) Accesses() int64 { return c.Hits + c.Misses }

// HitRate is Hits / (Hits+Misses), 0 when untouched.
func (c *CacheStats) HitRate() float64 {
	if t := c.Accesses(); t > 0 {
		return float64(c.Hits) / float64(t)
	}
	return 0
}

// Snapshot returns a copy of the current counters, usable later as the
// baseline for Delta.
func (c *CacheStats) Snapshot() CacheStats { return *c }

// Delta returns the activity accumulated since prev was snapshotted;
// HitRate on the result is the interval hit rate.
func (c *CacheStats) Delta(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:        c.Hits - prev.Hits,
		Misses:      c.Misses - prev.Misses,
		Evictions:   c.Evictions - prev.Evictions,
		DirtyEvicts: c.DirtyEvicts - prev.DirtyEvicts,
	}
}

// ReuseHistogram groups blocks by their total number of reuses
// ("homo-reuse groups", §II-B) and accumulates the off-chip bandwidth
// cost attributable to each group.  Bandwidth cost is measured, as in the
// paper, in exact DDRx data-bus cycles consumed serving the block.
type ReuseHistogram struct {
	reuse map[uint64]int64 // block -> access count
	cost  map[uint64]int64 // block -> accumulated bus cycles
}

// NewReuseHistogram returns an empty histogram.
func NewReuseHistogram() *ReuseHistogram {
	return &ReuseHistogram{reuse: make(map[uint64]int64), cost: make(map[uint64]int64)}
}

// Observe records one access to block with the given bus-cycle cost.
func (h *ReuseHistogram) Observe(block uint64, busCycles int64) {
	h.reuse[block]++
	h.cost[block] += busCycles
}

// Blocks reports the number of distinct blocks observed.
func (h *ReuseHistogram) Blocks() int { return len(h.reuse) }

// TotalAccesses reports the number of Observe calls.
func (h *ReuseHistogram) TotalAccesses() int64 {
	var n int64
	for _, c := range h.reuse {
		n += c
	}
	return n
}

// TotalCost reports the aggregate bus-cycle cost across all blocks.
func (h *ReuseHistogram) TotalCost() int64 {
	var n int64
	for _, c := range h.cost {
		n += c
	}
	return n
}

// ReuseSnapshot is a cheap aggregate view of a ReuseHistogram at one
// instant — the per-block maps are too heavy to copy every epoch, so
// interval deltas work on these totals instead.
type ReuseSnapshot struct {
	Blocks   int
	Accesses int64
	Cost     int64
}

// Snapshot returns the current aggregate totals, usable later as the
// baseline for Delta.
func (h *ReuseHistogram) Snapshot() ReuseSnapshot {
	return ReuseSnapshot{Blocks: h.Blocks(), Accesses: h.TotalAccesses(), Cost: h.TotalCost()}
}

// Delta returns the growth since prev was snapshotted: newly observed
// blocks, interval accesses, and interval bus-cycle cost.
func (h *ReuseHistogram) Delta(prev ReuseSnapshot) ReuseSnapshot {
	cur := h.Snapshot()
	return ReuseSnapshot{
		Blocks:   cur.Blocks - prev.Blocks,
		Accesses: cur.Accesses - prev.Accesses,
		Cost:     cur.Cost - prev.Cost,
	}
}

// Group is one homo-reuse group: all blocks with the same reuse count.
type Group struct {
	Reuses     int64 // accesses per block in this group (x axis of Fig 3)
	BlockCount int64
	Cost       int64 // aggregate bus cycles (y axis of Fig 3)
}

// Groups returns homo-reuse groups sorted by reuse count.  A block with
// n accesses has n-1 reuses; the paper plots groups by reuse count.
//
// Aggregation walks blocks in sorted key order so the emitted slice is
// byte-stable across runs — never in map order, which Go randomizes.
func (h *ReuseHistogram) Groups() []Group {
	blocks := make([]uint64, 0, len(h.reuse))
	for b := range h.reuse {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })

	agg := make(map[int64]*Group)
	reuseCounts := make([]int64, 0, len(blocks))
	for _, b := range blocks {
		reuses := h.reuse[b] - 1
		g := agg[reuses]
		if g == nil {
			g = &Group{Reuses: reuses}
			agg[reuses] = g
			reuseCounts = append(reuseCounts, reuses)
		}
		g.BlockCount++
		g.Cost += h.cost[b]
	}
	sort.Slice(reuseCounts, func(i, j int) bool { return reuseCounts[i] < reuseCounts[j] })
	out := make([]Group, 0, len(reuseCounts))
	for _, r := range reuseCounts {
		out = append(out, *agg[r])
	}
	return out
}

// CostShareAbove returns the fraction of total bandwidth cost carried by
// groups with reuse count in [lo, hi] — used to verify the paper's claim
// that a narrow reuse range dominates the cost.
func (h *ReuseHistogram) CostShareAbove(lo, hi int64) float64 {
	var in, total int64
	for _, g := range h.Groups() {
		total += g.Cost
		if g.Reuses >= lo && g.Reuses <= hi {
			in += g.Cost
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}

// LastAccess tracks, per block, the type of the most recent access so the
// §II-C statistic (share of blocks whose *last* access is a write) can be
// computed at end of simulation.
type LastAccess struct {
	last map[uint64]bool // block -> last access was a write
}

// NewLastAccess returns an empty tracker.
func NewLastAccess() *LastAccess { return &LastAccess{last: make(map[uint64]bool)} }

// Observe records an access to block.
func (l *LastAccess) Observe(block uint64, isWrite bool) { l.last[block] = isWrite }

// WriteShare reports the fraction of observed blocks whose final access
// was a write (the paper reports >82% for HBM-resident blocks).
func (l *LastAccess) WriteShare() float64 {
	if len(l.last) == 0 {
		return 0
	}
	var w int
	for _, isW := range l.last {
		if isW {
			w++
		}
	}
	return float64(w) / float64(len(l.last))
}

// Blocks reports how many distinct blocks were observed.
func (l *LastAccess) Blocks() int { return len(l.last) }

// Fmt renders a ratio as a percentage string for reports.
func Fmt(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
