package workloads

import (
	"reflect"
	"testing"

	"redcache/internal/mem"
)

func TestCatalogHasElevenWorkloads(t *testing.T) {
	c := Catalog()
	if len(c) != 11 {
		t.Fatalf("catalog has %d workloads, want 11 (Table II)", len(c))
	}
	want := []string{"FT", "IS", "MG", "CH", "RDX", "OCN", "FFT", "LU", "BRN", "HIST", "LREG"}
	if got := Labels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("labels = %v, want Table II order %v", got, want)
	}
	suites := map[string]int{}
	for _, s := range c {
		suites[s.Suite]++
		if s.Input == "" || s.Name == "" {
			t.Errorf("%s missing metadata", s.Label)
		}
	}
	if suites["NAS"] != 3 || suites["SPLASH-2"] != 6 || suites["PHOENIX"] != 2 {
		t.Errorf("suite mix = %v, want NAS 3 / SPLASH-2 6 / PHOENIX 2", suites)
	}
}

func TestByLabel(t *testing.T) {
	s, err := ByLabel("LU")
	if err != nil || s.Label != "LU" {
		t.Fatalf("ByLabel(LU) = %v, %v", s.Label, err)
	}
	if _, err := ByLabel("nope"); err == nil {
		t.Fatal("unknown label should error")
	}
}

func TestAllWorkloadsGenerateAtTinyScale(t *testing.T) {
	for _, s := range Catalog() {
		tr := s.Gen(4, Tiny, 1)
		if tr.Name != s.Label {
			t.Errorf("%s: trace named %q", s.Label, tr.Name)
		}
		if tr.Cores() != 4 {
			t.Errorf("%s: %d streams, want 4", s.Label, tr.Cores())
		}
		if tr.Records() == 0 {
			t.Errorf("%s: empty trace", s.Label)
		}
		if tr.Footprint() < 16 {
			t.Errorf("%s: footprint %d blocks is implausibly small", s.Label, tr.Footprint())
		}
		ws := tr.WriteShare()
		if ws < 0 || ws >= 1 {
			t.Errorf("%s: write share %f out of range", s.Label, ws)
		}
		for ci, st := range tr.Streams {
			for _, r := range st {
				if !r.Addr().BlockAligned() {
					t.Fatalf("%s core %d: unaligned record %#x", s.Label, ci, uint64(r.Addr()))
				}
			}
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, s := range Catalog() {
		a := s.Gen(2, Tiny, 42)
		b := s.Gen(2, Tiny, 42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different traces", s.Label)
		}
	}
}

func TestSeedChangesRandomizedWorkloads(t *testing.T) {
	// The randomized kernels must differ across seeds.
	for _, label := range []string{"IS", "RDX", "BRN", "HIST"} {
		s, _ := ByLabel(label)
		a := s.Gen(2, Tiny, 1)
		b := s.Gen(2, Tiny, 2)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed has no effect", label)
		}
	}
}

func TestScalesAreOrdered(t *testing.T) {
	for _, label := range []string{"FT", "LU", "HIST"} {
		s, _ := ByLabel(label)
		tiny := s.Gen(2, Tiny, 1).Footprint()
		small := s.Gen(2, Small, 1).Footprint()
		def := s.Gen(2, Default, 1).Footprint()
		if !(tiny < small && small < def) {
			t.Errorf("%s: footprints not ordered: %d, %d, %d", label, tiny, small, def)
		}
	}
}

func TestStreamingWorkloadsAreSingleUse(t *testing.T) {
	s, _ := ByLabel("LREG")
	tr := s.Gen(2, Small, 1)
	multi := 0
	for _, n := range tr.ReuseCounts() {
		if n > 1 {
			multi++
		}
	}
	if frac := float64(multi) / float64(tr.Footprint()); frac > 0.05 {
		t.Errorf("LREG: %.1f%% of blocks reused; should be a pure stream", 100*frac)
	}
}

func TestHighReuseWorkloadsHaveHomoReuseGroups(t *testing.T) {
	s, _ := ByLabel("LU")
	tr := s.Gen(4, Small, 1)
	counts := map[int]int{}
	for _, n := range tr.ReuseCounts() {
		counts[n]++
	}
	// The trailing-update schedule makes many blocks share reuse counts:
	// the biggest homo-reuse group should hold a sizable block share.
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	if frac := float64(best) / float64(tr.Footprint()); frac < 0.10 {
		t.Errorf("LU: largest homo-reuse group holds only %.1f%% of blocks", 100*frac)
	}
}

func TestSharedStructuresAreShared(t *testing.T) {
	// HIST bins: every core must touch the same bin region.
	s, _ := ByLabel("HIST")
	tr := s.Gen(4, Tiny, 1)
	perCore := make([]map[mem.BlockID]bool, 4)
	for c, st := range tr.Streams {
		perCore[c] = map[mem.BlockID]bool{}
		for _, r := range st {
			if r.Write {
				perCore[c][r.Addr().Block()] = true
			}
		}
	}
	shared := 0
	for b := range perCore[0] {
		inAll := true
		for c := 1; c < 4; c++ {
			if !perCore[c][b] {
				inAll = false
				break
			}
		}
		if inAll {
			shared++
		}
	}
	if shared == 0 {
		t.Error("HIST bin blocks should be written by every core")
	}
}

func TestSplitPartitionsWork(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, cores := range []int{1, 3, 16} {
			total := 0
			prevHi := 0
			for c := 0; c < cores; c++ {
				lo, hi := split(n, cores, c)
				if lo != prevHi {
					t.Fatalf("split(%d,%d): gap at core %d", n, cores, c)
				}
				total += hi - lo
				prevHi = hi
			}
			if total != n {
				t.Fatalf("split(%d,%d) covers %d items", n, cores, total)
			}
		}
	}
}

func TestRegionAllocatorPageAligned(t *testing.T) {
	g := newGen(1)
	a := g.region(100)
	b := g.region(5000)
	c := g.region(1)
	for _, r := range []mem.Addr{a, b, c} {
		if r%mem.PageSize != 0 {
			t.Fatalf("region %#x not page aligned", uint64(r))
		}
	}
	if b-a < 4096 || c-b < 8192 {
		t.Fatal("regions overlap")
	}
}

func TestScaleString(t *testing.T) {
	if Tiny.String() != "tiny" || Small.String() != "small" || Default.String() != "default" {
		t.Error("Scale strings changed")
	}
	for _, sc := range []Scale{Tiny, Small, Default} {
		if got, err := ParseScale(sc.String()); err != nil || got != sc {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", sc.String(), got, err, sc)
		}
	}
	for _, bad := range []string{"", "huge", "Tiny", "default "} {
		if _, err := ParseScale(bad); err == nil {
			t.Errorf("ParseScale(%q) accepted an unknown scale", bad)
		}
	}
}
