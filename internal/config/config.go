// Package config holds the simulated system configurations.  The paper's
// Table I parameters are reproduced verbatim (timings in CPU cycles at
// 3.2 GHz); Default() returns a laptop-scale configuration with the same
// timing parameters but scaled capacities, as documented in DESIGN.md §2.
package config

import (
	"errors"
	"fmt"
)

// DRAMTiming are command-to-command constraints in CPU cycles (3.2 GHz),
// named as in Table I of the paper.
type DRAMTiming struct {
	TRCD int64 // activate -> column command
	TCAS int64 // read -> first data (CL)
	TCCD int64 // column command -> column command (same rank)
	TWTR int64 // end of write data -> read command (turnaround)
	TWR  int64 // end of write data -> precharge
	TRTP int64 // read -> precharge
	TBL  int64 // data burst length on the bus for one 64 B block
	TCWD int64 // write -> first data (CWL)
	TRP  int64 // precharge -> activate
	TRRD int64 // activate -> activate (different banks, same rank)
	TRAS int64 // activate -> precharge (same bank)
	TRC  int64 // activate -> activate (same bank)
	TFAW int64 // window for at most four activates per rank
	// Refresh parameters (not in Table I; standard DDR4 values at
	// 3.2 GHz: tREFI = 7.8 us, tRFC = 350 ns).
	TREFI int64
	TRFC  int64
}

// Validate checks internal consistency of the timing set.
func (t DRAMTiming) Validate() error {
	type f struct {
		name string
		v    int64
	}
	for _, x := range []f{
		{"tRCD", t.TRCD}, {"tCAS", t.TCAS}, {"tCCD", t.TCCD}, {"tWTR", t.TWTR},
		{"tWR", t.TWR}, {"tRTP", t.TRTP}, {"tBL", t.TBL}, {"tCWD", t.TCWD},
		{"tRP", t.TRP}, {"tRRD", t.TRRD}, {"tRAS", t.TRAS}, {"tRC", t.TRC},
		{"tFAW", t.TFAW},
	} {
		if x.v <= 0 {
			return fmt.Errorf("config: %s must be positive, got %d", x.name, x.v)
		}
	}
	if t.TRC < t.TRAS+t.TRP {
		return fmt.Errorf("config: tRC (%d) < tRAS+tRP (%d)", t.TRC, t.TRAS+t.TRP)
	}
	if t.TREFI < 0 || t.TRFC < 0 {
		return errors.New("config: refresh timings must be non-negative")
	}
	return nil
}

// DRAMGeometry describes channel/rank/bank organization.
type DRAMGeometry struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
	RowBytes     int // row-buffer size per bank in bytes
	BusBytes     int // data-bus width in bytes (128 bit = 16, 64 bit = 8)
	CapacityB    int64
}

// Validate checks geometry consistency.
func (g DRAMGeometry) Validate() error {
	if g.Channels <= 0 || g.RanksPerChan <= 0 || g.BanksPerRank <= 0 {
		return errors.New("config: channels/ranks/banks must be positive")
	}
	if g.RowBytes <= 0 || g.RowBytes%64 != 0 {
		return fmt.Errorf("config: row size must be a positive multiple of 64, got %d", g.RowBytes)
	}
	if g.BusBytes != 4 && g.BusBytes != 8 && g.BusBytes != 16 {
		return fmt.Errorf("config: bus width must be 4, 8 or 16 bytes, got %d", g.BusBytes)
	}
	if g.CapacityB <= 0 {
		return errors.New("config: capacity must be positive")
	}
	return nil
}

// DRAM couples geometry with timing and per-operation energy.
type DRAM struct {
	Name     string
	Geometry DRAMGeometry
	Timing   DRAMTiming
	Energy   DRAMEnergy
}

// DRAMEnergy holds per-operation energy constants in picojoules.  See
// DESIGN.md §2 for sourcing; relative (not absolute) energy is claimed.
type DRAMEnergy struct {
	ActPJ        float64 // one ACT+PRE pair
	RdWrPJPerBit float64 // array read/write energy per bit
	IOPJPerBit   float64 // interface energy per bit
	BackgroundMW float64 // static power per channel in milliwatts
}

// CacheLevel describes one SRAM cache level.
type CacheLevel struct {
	SizeB     int64
	Ways      int
	LatencyCy int64 // hit latency in CPU cycles
}

// Sets returns the number of sets for 64 B blocks.
func (c CacheLevel) Sets() int64 { return c.SizeB / (64 * int64(c.Ways)) }

// Validate checks the level is realizable.
func (c CacheLevel) Validate() error {
	if c.SizeB <= 0 || c.Ways <= 0 || c.LatencyCy < 0 {
		return errors.New("config: cache size/ways must be positive")
	}
	if c.SizeB%(64*int64(c.Ways)) != 0 {
		return fmt.Errorf("config: cache size %d not divisible into %d ways of 64B blocks", c.SizeB, c.Ways)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("config: number of sets %d must be a power of two", s)
	}
	return nil
}

// CPU describes the multicore front end.
type CPU struct {
	Cores           int
	IssueWidth      int // non-memory instructions retired per cycle
	MaxOutstanding  int // in-flight demand loads per core (MLP window)
	StoreBufferSize int // posted stores per core before stalling
	FreqGHz         float64
	CorePowerMW     float64 // active power per core
	UncorePowerMW   float64 // shared LLC/NoC static power
}

// RedCacheParams are the knobs of the proposed architecture (§III).
type RedCacheParams struct {
	AlphaInit      int   // initial α threshold (page accesses before admission)
	AlphaMin       int   // adaptation floor
	AlphaMax       int   // adaptation ceiling
	AlphaEpoch     int64 // accesses between α adaptation steps
	AlphaBufferEnt int   // on-chip α-count buffer entries (TLB shadow)
	GammaInit      int   // initial γ threshold (expected block lifetime)
	GammaMin       int
	GammaMax       int     // saturating r-count ceiling (8-bit in the paper)
	RCUEntries     int     // RCU CAM/RAM entries (32 in §III-C)
	SRAMAccessPJ   float64 // per-access energy of controller SRAM structures
	InSituPJ       float64 // extra per-update energy for Red-InSitu in-DRAM logic
}

// System is a complete simulated machine.
type System struct {
	CPU       CPU
	L1        CacheLevel
	L2        CacheLevel
	L3        CacheLevel
	HBM       DRAM  // in-package DRAM cache (WideIO interface)
	MainMem   DRAM  // off-chip DDR4
	HBMCacheB int64 // usable DRAM-cache data capacity
	// Granularity is the cache-block transfer size between DDR4 and HBM
	// (64, 128, or 256 B; Fig 2b sweeps it).  On-die caches stay at 64 B.
	Granularity int
	Red         RedCacheParams
	Seed        int64
}

// Validate checks the whole system description.
func (s *System) Validate() error {
	if s.CPU.Cores <= 0 || s.CPU.IssueWidth <= 0 || s.CPU.MaxOutstanding <= 0 {
		return errors.New("config: CPU cores/width/outstanding must be positive")
	}
	for _, c := range []struct {
		name string
		l    CacheLevel
	}{{"L1", s.L1}, {"L2", s.L2}, {"L3", s.L3}} {
		if err := c.l.Validate(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	for _, d := range []*DRAM{&s.HBM, &s.MainMem} {
		if err := d.Geometry.Validate(); err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		if err := d.Timing.Validate(); err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
	}
	switch s.Granularity {
	case 64, 128, 256:
	default:
		return fmt.Errorf("config: granularity must be 64, 128 or 256, got %d", s.Granularity)
	}
	if s.HBMCacheB <= 0 || s.HBMCacheB%int64(s.Granularity) != 0 {
		return errors.New("config: HBM cache capacity must be a positive multiple of the granularity")
	}
	if s.Red.RCUEntries <= 0 || s.Red.AlphaBufferEnt <= 0 {
		return errors.New("config: RedCache structure sizes must be positive")
	}
	// The RCU's counting filter keeps 8-bit bucket counts.
	if s.Red.RCUEntries > 255 {
		return fmt.Errorf("config: RCU CAM holds at most 255 entries, got %d", s.Red.RCUEntries)
	}
	if s.Red.AlphaMin > s.Red.AlphaInit || s.Red.AlphaInit > s.Red.AlphaMax {
		return errors.New("config: need AlphaMin <= AlphaInit <= AlphaMax")
	}
	if s.Red.GammaMin > s.Red.GammaInit || s.Red.GammaInit > s.Red.GammaMax {
		return errors.New("config: need GammaMin <= GammaInit <= GammaMax")
	}
	// Width limits: r-counts are stored as uint8 in the spare ECC bits,
	// so a γ ceiling above 255 would make invalidation unreachable (the
	// saturating count can never exceed γ); α compares against uint16
	// page counters capped well below their saturation point.
	if s.Red.GammaMin < 0 || s.Red.GammaMax > 255 {
		return errors.New("config: gamma range must stay within the 8-bit r-count field [0, 255]")
	}
	if s.Red.AlphaMin < 0 || s.Red.AlphaMax > 1023 {
		return errors.New("config: alpha range must stay within [0, 1023]")
	}
	return nil
}

// PaperHBMTiming returns the DRAM-cache timing row of Table I, verbatim.
func PaperHBMTiming() DRAMTiming {
	return DRAMTiming{
		TRCD: 44, TCAS: 44, TCCD: 16, TWTR: 31, TWR: 4, TRTP: 46, TBL: 10,
		TCWD: 61, TRP: 44, TRRD: 16, TRAS: 112, TRC: 271, TFAW: 181,
		TREFI: 24960, TRFC: 1120,
	}
}

// PaperDDR4Timing returns the main-memory timing row of Table I with one
// correction: the table lists tCCD:61 for DDR4, which equals the HBM
// row's tCWD and would cap the whole off-chip system at ~1/12 of the
// WideIO bandwidth — inconsistent with the paper's own Fig 2(a), where
// the No-HBM system is only ~4.5x slower than IDEAL.  Standard DDR4
// tCCD is 4 DRAM cycles = 16 CPU cycles at the 2:1 clock ratio, matching
// the HBM row; we use that (see DESIGN.md §5).  tBL is scaled to 20: a
// 64 B block needs twice the beats on the 64-bit DDR4 bus that it needs
// on the 128-bit WideIO bus, which restores the ~4:1 peak-bandwidth
// ratio between the interfaces (102.4 vs 25.6 GB/s) that both Table I's
// geometry and Fig 2(a) imply.
func PaperDDR4Timing() DRAMTiming {
	return DRAMTiming{
		TRCD: 44, TCAS: 44, TCCD: 16, TWTR: 31, TWR: 4, TRTP: 46, TBL: 20,
		TCWD: 44, TRP: 44, TRRD: 16, TRAS: 112, TRC: 271, TFAW: 181,
		TREFI: 24960, TRFC: 1120,
	}
}

// hbmEnergy and ddr4Energy are the per-operation constants discussed in
// DESIGN.md (HBM ≈ 3.9 pJ/bit class, DDR4 ≈ 20 pJ/bit class interfaces).
func hbmEnergy() DRAMEnergy {
	return DRAMEnergy{ActPJ: 900, RdWrPJPerBit: 1.2, IOPJPerBit: 2.7, BackgroundMW: 45}
}

func ddr4Energy() DRAMEnergy {
	return DRAMEnergy{ActPJ: 2500, RdWrPJPerBit: 4.0, IOPJPerBit: 16.0, BackgroundMW: 90}
}

// Paper returns the full Table I configuration.  It is faithful but far
// too large to simulate with in-memory workloads; experiments use
// Default() instead (same timings, scaled capacities).
func Paper() *System {
	s := &System{
		CPU: CPU{Cores: 16, IssueWidth: 4, MaxOutstanding: 48, StoreBufferSize: 48,
			FreqGHz: 3.2, CorePowerMW: 1500, UncorePowerMW: 4000},
		L1: CacheLevel{SizeB: 64 << 10, Ways: 4, LatencyCy: 4},
		L2: CacheLevel{SizeB: 128 << 10, Ways: 8, LatencyCy: 12},
		L3: CacheLevel{SizeB: 8 << 20, Ways: 8, LatencyCy: 36},
		HBM: DRAM{
			Name: "HBM",
			Geometry: DRAMGeometry{Channels: 4, RanksPerChan: 8, BanksPerRank: 2,
				RowBytes: 2048, BusBytes: 16, CapacityB: 2 << 30},
			Timing: PaperHBMTiming(),
			Energy: hbmEnergy(),
		},
		MainMem: DRAM{
			Name: "DDR4",
			Geometry: DRAMGeometry{Channels: 2, RanksPerChan: 2, BanksPerRank: 8,
				RowBytes: 2048, BusBytes: 8, CapacityB: 32 << 30},
			Timing: PaperDDR4Timing(),
			Energy: ddr4Energy(),
		},
		HBMCacheB:   2 << 30,
		Granularity: 64,
		Red:         defaultRedParams(),
		Seed:        1,
	}
	return s
}

func defaultRedParams() RedCacheParams {
	return RedCacheParams{
		AlphaInit: 4, AlphaMin: 1, AlphaMax: 64, AlphaEpoch: 16384,
		AlphaBufferEnt: 1024,
		GammaInit:      16, GammaMin: 4, GammaMax: 255,
		RCUEntries:   32,
		SRAMAccessPJ: 12,
		InSituPJ:     35,
	}
}

// Default returns the scaled evaluation configuration used by the test
// and benchmark harnesses: Table I timings, capacities divided so that
// workload footprints of a few MB exercise the same conflict/capacity
// regime the paper studies (DESIGN.md §2).
func Default() *System {
	s := Paper()
	s.L1 = CacheLevel{SizeB: 16 << 10, Ways: 4, LatencyCy: 4}
	s.L2 = CacheLevel{SizeB: 64 << 10, Ways: 8, LatencyCy: 12}
	s.L3 = CacheLevel{SizeB: 512 << 10, Ways: 8, LatencyCy: 36}
	s.HBM.Geometry.CapacityB = 4 << 20
	s.HBMCacheB = 4 << 20
	s.MainMem.Geometry.CapacityB = 1 << 30
	return s
}

// Tiny returns a minimal configuration for unit tests: small caches and
// a 256 KB HBM cache so corner cases (evictions, conflicts, refresh) are
// reached with short traces.
func Tiny() *System {
	s := Paper()
	s.CPU.Cores = 2
	s.L1 = CacheLevel{SizeB: 1 << 10, Ways: 2, LatencyCy: 2}
	s.L2 = CacheLevel{SizeB: 4 << 10, Ways: 4, LatencyCy: 6}
	s.L3 = CacheLevel{SizeB: 16 << 10, Ways: 4, LatencyCy: 12}
	s.HBM.Geometry.Channels = 2
	s.HBM.Geometry.RanksPerChan = 1
	s.HBM.Geometry.BanksPerRank = 4
	s.HBM.Geometry.CapacityB = 256 << 10
	s.HBMCacheB = 256 << 10
	s.MainMem.Geometry.Channels = 1
	s.MainMem.Geometry.RanksPerChan = 1
	s.MainMem.Geometry.BanksPerRank = 4
	s.MainMem.Geometry.CapacityB = 64 << 20
	s.Red.AlphaBufferEnt = 64
	return s
}
