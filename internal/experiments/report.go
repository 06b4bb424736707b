package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"redcache/internal/hbm"
)

// PaperExpectation records the headline number the paper reports for a
// metric, for side-by-side comparison in EXPERIMENTS.md.
type PaperExpectation struct {
	Metric string
	Paper  string
}

// PaperClaims lists the quantitative claims this reproduction targets.
func PaperClaims() []PaperExpectation {
	return []PaperExpectation{
		{"Fig 2a: IDEAL relative bandwidth vs No-HBM", "~6x"},
		{"Fig 2a: IDEAL relative transferred data vs No-HBM", "~1.33x"},
		{"Fig 2a: IDEAL speedup vs No-HBM", "~4.5x"},
		{"Fig 2a: HBM-cache performance vs IDEAL", "~40% worse"},
		{"Fig 2b: 128B hit-rate gain over 64B", "+12%"},
		{"Fig 2b: 256B hit-rate gain over 64B", "+21%"},
		{"Fig 2b: coarse-grain performance loss", "8-24%"},
		{"Fig 3: narrow reuse range dominates bandwidth cost", "qualitative"},
		{"§II-C: last accesses that are writebacks", ">82%"},
		{"§III-C: r-count updates needing no dedicated transfer", ">97%"},
		{"Fig 9: RedCache execution time vs Alloy", "-31%"},
		{"Fig 9: RedCache execution time vs Bear", "-24%"},
		{"Fig 9: Red-Alpha contribution", "-27%"},
		{"Fig 9: Red-Gamma contribution", "-14%"},
		{"Fig 9: RedCache vs Red-InSitu", "~98% of Red-InSitu"},
		{"Fig 10: RedCache HBM energy vs Alloy", "-42%"},
		{"Fig 10: RedCache HBM energy vs Bear", "-37%"},
		{"Fig 11: RedCache system energy vs Alloy", "-29%"},
		{"Fig 11: RedCache system energy vs Bear", "-18%"},
		{"Fig 11: Red-InSitu system energy vs Alloy", "-33%"},
	}
}

// WriteTable renders a NormalizedSeries as an aligned text table.
func (n *NormalizedSeries) WriteTable(w io.Writer) {
	fmt.Fprintln(w, n.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := []string{"workload"}
	for _, a := range n.Archs {
		header = append(header, string(a))
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, wl := range n.Workloads {
		row := []string{wl}
		for _, a := range n.Archs {
			row = append(row, fmt.Sprintf("%.3f", n.Values[wl][a]))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	mean := []string{"gmean"}
	for _, a := range n.Archs {
		mean = append(mean, fmt.Sprintf("%.3f", n.Mean[a]))
	}
	fmt.Fprintln(tw, strings.Join(mean, "\t"))
	tw.Flush()
}

// CSV renders the series as comma-separated values.
func (n *NormalizedSeries) CSV() string {
	var b strings.Builder
	b.WriteString("workload")
	for _, a := range n.Archs {
		fmt.Fprintf(&b, ",%s", a)
	}
	b.WriteByte('\n')
	for _, wl := range n.Workloads {
		b.WriteString(wl)
		for _, a := range n.Archs {
			fmt.Fprintf(&b, ",%.4f", n.Values[wl][a])
		}
		b.WriteByte('\n')
	}
	b.WriteString("gmean")
	for _, a := range n.Archs {
		fmt.Fprintf(&b, ",%.4f", n.Mean[a])
	}
	b.WriteByte('\n')
	return b.String()
}

// Improvement reports how much better arch is than base in this series,
// as a positive fraction (0.31 = 31% lower metric).
func (n *NormalizedSeries) Improvement(arch, base hbm.Arch) float64 {
	b := n.Mean[base]
	if b == 0 {
		return 0
	}
	return 1 - n.Mean[arch]/b
}

// TextStats are the §II-C / §III-C statistics measured across workloads.
type TextStats struct {
	// LastWriteShare per workload measured on the Alloy baseline.
	LastWriteShare map[string]float64
	MeanLastWrite  float64
	// RCUFreeShare per workload measured on RedCache.
	RCUFreeShare map[string]float64
	MeanRCUFree  float64
}

// Stats computes the quoted-text statistics.
func (s *Suite) TextStats() (*TextStats, error) {
	out := &TextStats{
		LastWriteShare: make(map[string]float64),
		RCUFreeShare:   make(map[string]float64),
	}
	var keys []runKey
	for _, w := range s.Labels() {
		keys = append(keys, runKey{w, hbm.ArchAlloy, s.Sys.Granularity},
			runKey{w, hbm.ArchRedCache, s.Sys.Granularity})
	}
	if err := s.runAll(keys); err != nil {
		return nil, err
	}
	var lw, rf []float64
	for _, w := range s.Labels() {
		a, err := s.Result(w, hbm.ArchAlloy)
		if err != nil {
			return nil, err
		}
		r, err := s.Result(w, hbm.ArchRedCache)
		if err != nil {
			return nil, err
		}
		out.LastWriteShare[w] = a.Ctl.LastWriteShare()
		out.RCUFreeShare[w] = r.Ctl.RCU.FreeShare()
		lw = append(lw, out.LastWriteShare[w])
		rf = append(rf, out.RCUFreeShare[w])
	}
	out.MeanLastWrite = mean(lw)
	out.MeanRCUFree = mean(rf)
	return out, nil
}

// TextStatsRow is one workload's §II-C / §III-C measurements.
type TextStatsRow struct {
	Workload       string
	LastWriteShare float64
	RCUFreeShare   float64
}

// Rows flattens the per-workload maps in sorted workload order, so
// anything emitting them (tables, CSV, tests) is byte-stable across
// runs regardless of map iteration order.
func (t *TextStats) Rows() []TextStatsRow {
	keys := make([]string, 0, len(t.LastWriteShare))
	for w := range t.LastWriteShare {
		keys = append(keys, w)
	}
	sort.Strings(keys)
	out := make([]TextStatsRow, 0, len(keys))
	for _, w := range keys {
		out = append(out, TextStatsRow{
			Workload:       w,
			LastWriteShare: t.LastWriteShare[w],
			RCUFreeShare:   t.RCUFreeShare[w],
		})
	}
	return out
}

// WriteTable renders the text statistics per workload plus means.
func (t *TextStats) WriteTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tlast-access-write\trcu-free-updates")
	for _, r := range t.Rows() {
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\n",
			r.Workload, 100*r.LastWriteShare, 100*r.RCUFreeShare)
	}
	fmt.Fprintf(tw, "mean\t%.1f%%\t%.1f%%\n", 100*t.MeanLastWrite, 100*t.MeanRCUFree)
	tw.Flush()
}

// Fig3Sketch renders an ASCII sketch of a homo-reuse histogram: cost per
// reuse bucket, normalized to the tallest bucket.  It draws at most
// buckets rows and never more than one per reuse count, so the rows'
// ranges tile 0..maxReuse with no empty or inverted range.
func Fig3Sketch(r Fig3Result, buckets int, w io.Writer) {
	if len(r.Groups) == 0 {
		fmt.Fprintf(w, "%s: no off-chip traffic observed\n", r.Workload)
		return
	}
	maxReuse := r.Groups[len(r.Groups)-1].Reuses
	n := min(int64(buckets), maxReuse+1)
	agg := make([]int64, n)
	for _, g := range r.Groups {
		// Index with the int64 math directly; no narrowing.
		agg[g.Reuses*n/(maxReuse+1)] += g.Cost
	}
	var peak int64 = 1
	for _, v := range agg {
		if v > peak {
			peak = v
		}
	}
	fmt.Fprintf(w, "%s (reuse 0..%d, peak-window share %.0f%%)\n",
		r.Workload, maxReuse, 100*r.PeakShare)
	for i, v := range agg {
		bar := int(v * 40 / peak) //redvet:units — v <= peak, so the bar is bounded to [0,40]
		lo := int64(i) * (maxReuse + 1) / n
		hi := int64(i+1)*(maxReuse+1)/n - 1
		fmt.Fprintf(w, "  %4d-%-4d |%s\n", lo, hi, strings.Repeat("#", bar))
	}
}
