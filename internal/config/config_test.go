package config

import "testing"

func TestPaperConfigurationsValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		sys  *System
	}{{"Paper", Paper()}, {"Default", Default()}, {"Tiny", Tiny()}} {
		if err := c.sys.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestPaperTimingsMatchTableI(t *testing.T) {
	h := PaperHBMTiming()
	if h.TRCD != 44 || h.TCAS != 44 || h.TCCD != 16 || h.TWTR != 31 ||
		h.TWR != 4 || h.TRTP != 46 || h.TBL != 10 || h.TCWD != 61 ||
		h.TRP != 44 || h.TRRD != 16 || h.TRAS != 112 || h.TRC != 271 || h.TFAW != 181 {
		t.Errorf("HBM timing drifted from Table I: %+v", h)
	}
	d := PaperDDR4Timing()
	// tCCD and tBL are the documented corrections (config.go): standard
	// DDR4 tCCD and a burst length scaled to the narrower 64-bit bus.
	if d.TCCD != 16 || d.TCWD != 44 || d.TBL != 20 || d.TCAS != 44 {
		t.Errorf("DDR4 timing drifted from Table I: %+v", d)
	}
}

func TestPaperGeometryMatchesTableI(t *testing.T) {
	s := Paper()
	if s.CPU.Cores != 16 || s.CPU.IssueWidth != 4 || s.CPU.FreqGHz != 3.2 {
		t.Errorf("CPU drifted: %+v", s.CPU)
	}
	g := s.HBM.Geometry
	if g.Channels != 4 || g.RanksPerChan*g.BanksPerRank != 16 || g.BusBytes != 16 {
		t.Errorf("HBM geometry drifted: %+v", g)
	}
	m := s.MainMem.Geometry
	if m.Channels != 2 || m.RanksPerChan != 2 || m.BanksPerRank != 8 || m.BusBytes != 8 {
		t.Errorf("DDR4 geometry drifted: %+v", m)
	}
	if s.HBMCacheB != 2<<30 || s.MainMem.Geometry.CapacityB != 32<<30 {
		t.Errorf("capacities drifted")
	}
}

func TestValidateCatchesBadTiming(t *testing.T) {
	tm := PaperHBMTiming()
	tm.TRCD = 0
	if err := tm.Validate(); err == nil {
		t.Error("zero tRCD should fail")
	}
	tm = PaperHBMTiming()
	tm.TRC = tm.TRAS // < tRAS+tRP
	if err := tm.Validate(); err == nil {
		t.Error("tRC < tRAS+tRP should fail")
	}
}

func TestValidateCatchesBadGeometry(t *testing.T) {
	g := DRAMGeometry{Channels: 0, RanksPerChan: 1, BanksPerRank: 1, RowBytes: 2048, BusBytes: 8, CapacityB: 1}
	if err := g.Validate(); err == nil {
		t.Error("zero channels should fail")
	}
	g = DRAMGeometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowBytes: 100, BusBytes: 8, CapacityB: 1}
	if err := g.Validate(); err == nil {
		t.Error("row size not multiple of 64 should fail")
	}
	g = DRAMGeometry{Channels: 1, RanksPerChan: 1, BanksPerRank: 1, RowBytes: 2048, BusBytes: 5, CapacityB: 1}
	if err := g.Validate(); err == nil {
		t.Error("bad bus width should fail")
	}
}

func TestValidateCatchesBadCache(t *testing.T) {
	c := CacheLevel{SizeB: 1000, Ways: 4, LatencyCy: 1}
	if err := c.Validate(); err == nil {
		t.Error("non-divisible cache size should fail")
	}
	c = CacheLevel{SizeB: 192 * 64, Ways: 1, LatencyCy: 1} // 192 sets: not pow2
	if err := c.Validate(); err == nil {
		t.Error("non-power-of-two sets should fail")
	}
	good := CacheLevel{SizeB: 64 << 10, Ways: 4, LatencyCy: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("good cache failed: %v", err)
	}
	if good.Sets() != 256 {
		t.Errorf("sets = %d, want 256", good.Sets())
	}
}

func TestValidateCatchesBadSystem(t *testing.T) {
	s := Default()
	s.Granularity = 96
	if err := s.Validate(); err == nil {
		t.Error("bad granularity should fail")
	}
	s = Default()
	s.Red.AlphaMin = 100
	if err := s.Validate(); err == nil {
		t.Error("AlphaMin > AlphaInit should fail")
	}
	s = Default()
	s.Red.GammaInit = 1000
	if err := s.Validate(); err == nil {
		t.Error("GammaInit > GammaMax should fail")
	}
	s = Default()
	s.CPU.Cores = 0
	if err := s.Validate(); err == nil {
		t.Error("zero cores should fail")
	}
	s = Default()
	s.Red.RCUEntries = 256
	if err := s.Validate(); err == nil {
		t.Error("an RCU CAM above 255 entries should fail")
	}
}

func TestDefaultIsScaledPaper(t *testing.T) {
	p, d := Paper(), Default()
	// Timings must be identical; only capacities scale (DESIGN.md §2).
	if p.HBM.Timing != d.HBM.Timing || p.MainMem.Timing != d.MainMem.Timing {
		t.Error("Default must keep Table I timings")
	}
	if d.HBMCacheB >= p.HBMCacheB {
		t.Error("Default HBM cache must be scaled down")
	}
}
