package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"redcache/internal/hbm"
	"redcache/internal/stats"
	"redcache/internal/workloads"
)

// tinySuite runs two small workloads so the whole figure pipeline is
// exercised quickly.
func tinySuite() *Suite {
	s := NewSuite(workloads.Tiny)
	s.Sys.CPU.Cores = 4
	s.Workloads = []string{"LU", "HIST"}
	return s
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %f, want 4", g)
	}
	if Geomean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if Geomean([]float64{1, 0}) != 0 {
		t.Fatal("non-positive values should yield 0")
	}
}

func TestFig9PipelineTiny(t *testing.T) {
	s := tinySuite()
	f, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != 2 || len(f.Archs) != 7 {
		t.Fatalf("shape = %d workloads x %d archs", len(f.Workloads), len(f.Archs))
	}
	for _, w := range f.Workloads {
		if v := f.Values[w][hbm.ArchAlloy]; v != 1.0 {
			t.Errorf("%s: baseline normalized to %f, want 1", w, v)
		}
		for a, v := range f.Values[w] {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s/%s: bad normalized value %f", w, a, v)
			}
		}
	}
	if f.Mean[hbm.ArchAlloy] != 1.0 {
		t.Errorf("Alloy gmean = %f, want 1", f.Mean[hbm.ArchAlloy])
	}
	// The improvement helper must be consistent with the means.
	imp := f.Improvement(hbm.ArchRedCache, hbm.ArchAlloy)
	want := 1 - f.Mean[hbm.ArchRedCache]
	if math.Abs(imp-want) > 1e-12 {
		t.Errorf("Improvement = %f, want %f", imp, want)
	}
}

func TestResultsAreMemoized(t *testing.T) {
	s := tinySuite()
	r1, err := s.Result("LU", hbm.ArchAlloy)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Result("LU", hbm.ArchAlloy)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second Result call must return the memoized pointer")
	}
}

func TestFig2aPoints(t *testing.T) {
	s := tinySuite()
	pts, err := s.Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	base := pts[0]
	if base.Arch != hbm.ArchNoHBM || base.RelData != 1 || base.RelPerf != 1 {
		t.Fatalf("first point must be the No-HBM baseline: %+v", base)
	}
	for _, p := range pts {
		if p.RelData <= 0 || p.RelBW <= 0 || p.RelPerf <= 0 {
			t.Errorf("%s: non-positive metrics %+v", p.Arch, p)
		}
	}
}

func TestFig2bGranularities(t *testing.T) {
	s := tinySuite()
	pts, err := s.Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].Granularity != 64 {
		t.Fatalf("unexpected sweep: %+v", pts)
	}
	if pts[0].RelPerf != 1 {
		t.Errorf("64B point must be the baseline, got %f", pts[0].RelPerf)
	}
	// Coarser transfers move at least as much data.
	if pts[2].RelData < pts[0].RelData {
		t.Errorf("256B moved less data than 64B: %f < %f", pts[2].RelData, pts[0].RelData)
	}
}

func TestFig3Histograms(t *testing.T) {
	s := tinySuite()
	res, err := s.Fig3([]string{"LU"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Groups) == 0 {
		t.Fatal("no homo-reuse groups observed")
	}
	if res[0].PeakShare <= 0 || res[0].PeakShare > 1 {
		t.Fatalf("peak share = %f", res[0].PeakShare)
	}
	var total int64
	for _, g := range res[0].Groups {
		if g.BlockCount <= 0 || g.Cost < 0 {
			t.Fatalf("bad group %+v", g)
		}
		total += g.Cost
	}
	if total == 0 {
		t.Fatal("no bandwidth cost recorded")
	}
}

func TestTextStats(t *testing.T) {
	s := tinySuite()
	ts, err := s.TextStats()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range s.Labels() {
		if v := ts.LastWriteShare[w]; v < 0 || v > 1 {
			t.Errorf("%s last-write share %f out of range", w, v)
		}
		if v := ts.RCUFreeShare[w]; v < 0 || v > 1 {
			t.Errorf("%s RCU free share %f out of range", w, v)
		}
	}
}

func TestTableRendering(t *testing.T) {
	s := tinySuite()
	f, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	f.WriteTable(&sb)
	out := sb.String()
	if !strings.Contains(out, "gmean") || !strings.Contains(out, "LU") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	csv := f.CSV()
	if lines := strings.Count(csv, "\n"); lines != 4 { // header + 2 workloads + gmean
		t.Fatalf("CSV has %d lines, want 4:\n%s", lines, csv)
	}
	if !strings.HasPrefix(csv, "workload,Alloy,") {
		t.Fatalf("CSV header wrong: %q", csv[:40])
	}
}

func TestPaperClaimsCatalog(t *testing.T) {
	claims := PaperClaims()
	if len(claims) < 15 {
		t.Fatalf("only %d paper claims catalogued", len(claims))
	}
	for _, c := range claims {
		if c.Metric == "" || c.Paper == "" {
			t.Errorf("incomplete claim %+v", c)
		}
	}
}

func TestFig3Sketch(t *testing.T) {
	var sb strings.Builder
	Fig3Sketch(Fig3Result{Workload: "X", Groups: []stats.Group{
		{Reuses: 0, BlockCount: 10, Cost: 100},
		{Reuses: 5, BlockCount: 2, Cost: 400},
	}, PeakShare: 0.8}, 4, &sb)
	if !strings.Contains(sb.String(), "X") || !strings.Contains(sb.String(), "#") {
		t.Fatalf("sketch malformed:\n%s", sb.String())
	}
	sb.Reset()
	Fig3Sketch(Fig3Result{Workload: "Y"}, 4, &sb)
	if !strings.Contains(sb.String(), "no off-chip traffic") {
		t.Fatal("empty sketch should say so")
	}
}

// TestFig3SketchRangesTile checks the row labels: every row's range is
// non-empty (lo <= hi), the rows tile 0..maxReuse in order, and no more
// rows are drawn than there are reuse counts — also when the reuse range
// is narrower than the requested bucket count.
func TestFig3SketchRangesTile(t *testing.T) {
	for _, c := range []struct {
		maxReuse int64
		buckets  int
	}{{0, 12}, {1, 12}, {5, 12}, {11, 12}, {12, 12}, {100, 12}, {5, 4}} {
		var sb strings.Builder
		Fig3Sketch(Fig3Result{Workload: "W", Groups: []stats.Group{
			{Reuses: 0, BlockCount: 1, Cost: 10},
			{Reuses: c.maxReuse, BlockCount: 1, Cost: 20},
		}}, c.buckets, &sb)
		lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")[1:]
		if want := min(int64(c.buckets), c.maxReuse+1); int64(len(lines)) != want {
			t.Errorf("maxReuse %d, %d buckets: %d rows, want %d:\n%s",
				c.maxReuse, c.buckets, len(lines), want, sb.String())
			continue
		}
		next := int64(0)
		for _, l := range lines {
			var lo, hi int64
			if _, err := fmt.Sscanf(strings.TrimSpace(l), "%d-%d", &lo, &hi); err != nil {
				t.Fatalf("unparsable row %q: %v", l, err)
			}
			if lo != next || hi < lo {
				t.Errorf("maxReuse %d, %d buckets: row %q, want a range starting at %d with lo <= hi:\n%s",
					c.maxReuse, c.buckets, l, next, sb.String())
				break
			}
			next = hi + 1
		}
		if next != c.maxReuse+1 {
			t.Errorf("maxReuse %d, %d buckets: rows end at %d, want %d", c.maxReuse, c.buckets, next-1, c.maxReuse)
		}
	}
}

func TestAblations(t *testing.T) {
	s := tinySuite()
	s.Workloads = []string{"LU"}
	for name, run := range map[string]func() ([]AblationPoint, error){
		"rcu":   s.AblationRCUSize,
		"alpha": s.AblationAlphaAdaptivity,
		"gamma": s.AblationGammaAdaptivity,
	} {
		pts, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pts) < 3 {
			t.Fatalf("%s: only %d points", name, len(pts))
		}
		if pts[0].RelTime != 1 || pts[0].RelHBMEnergy != 1 {
			t.Fatalf("%s: first point must be the normalization baseline: %+v", name, pts[0])
		}
		for _, p := range pts[1:] {
			if p.RelTime <= 0 || p.RelHBMEnergy <= 0 {
				t.Fatalf("%s/%s: bad point %+v", name, p.Name, p)
			}
		}
	}
}

// TestAblationParallelMatchesSerial checks that fanning the ablation
// runs out over the worker pool leaves every point unchanged.
func TestAblationParallelMatchesSerial(t *testing.T) {
	points := func(parallel int) []AblationPoint {
		s := tinySuite()
		s.Parallel = parallel
		pts, err := s.AblationRCUSize()
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	serial, parallel := points(1), points(3)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Parallel 3 points differ from Parallel 1:\n%+v\n%+v", parallel, serial)
	}
}
