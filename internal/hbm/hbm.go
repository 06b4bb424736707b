// Package hbm implements the DRAM-cache controllers compared in the
// paper: the No-HBM and IDEAL reference topologies (§II-A, Fig 1), the
// Alloy and BEAR baselines, and the six RedCache variants of §IV-A
// (Red-Alpha, Red-Gamma, Red-Basic, Red-InSitu, and the full RedCache
// with alpha+gamma counting, RCU management and refresh bypass).
//
// Every controller sits between the L3 (requests arrive via Submit) and
// two dram.Controllers: the in-package WideIO HBM and off-chip DDR4.
package hbm

import (
	"fmt"

	"redcache/internal/config"
	"redcache/internal/dram"
	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/obs"
	"redcache/internal/stats"
)

// Arch names a DRAM-cache architecture.
type Arch string

// The architectures evaluated in the paper (Figs 9-11 plus the §II
// reference topologies).
const (
	ArchNoHBM     Arch = "NoHBM"
	ArchIdeal     Arch = "Ideal"
	ArchAlloy     Arch = "Alloy"
	ArchBear      Arch = "Bear"
	ArchRedAlpha  Arch = "Red-Alpha"
	ArchRedGamma  Arch = "Red-Gamma"
	ArchRedBasic  Arch = "Red-Basic"
	ArchRedInSitu Arch = "Red-InSitu"
	ArchRedCache  Arch = "RedCache"
)

// All lists every architecture in presentation order.
func All() []Arch {
	return []Arch{ArchNoHBM, ArchIdeal, ArchAlloy, ArchBear,
		ArchRedAlpha, ArchRedGamma, ArchRedBasic, ArchRedInSitu, ArchRedCache}
}

// Figure9Archs lists the architectures plotted in Figs 9-11 (all
// normalized to Alloy).
func Figure9Archs() []Arch {
	return []Arch{ArchAlloy, ArchBear, ArchRedAlpha, ArchRedGamma,
		ArchRedBasic, ArchRedInSitu, ArchRedCache}
}

// Controller is the memory subsystem below the L3.
type Controller interface {
	// Submit hands over an L3 miss (read) or L3 dirty eviction (write).
	Submit(req *mem.Request)
	// Name reports the architecture.
	Name() Arch
	// Stats exposes the controller-level statistics.
	Stats() *Stats
	// RegisterTelemetry registers the controller's probes with tel's
	// registry and wires the event tracer into instrumented paths.
	// Called at wire-up, before the first Submit.
	RegisterTelemetry(tel *obs.Telemetry)
	// Drain flushes any internal buffers (RCU queue) at end of run.
	Drain()
}

// RCUStats breaks down how deferred r-count updates were disposed of
// (§III-C).
type RCUStats struct {
	Enqueued   int64
	Piggyback  int64 // condition 1: rode a same-row demand write at tCCD
	IdleFlush  int64 // condition 2: persisted while the queue was empty
	Dropped    int64 // queue full: oldest update aged out (count goes stale)
	DrainFlush int64 // end-of-run drain
	BlockHits  int64 // RCU RAM served a demand read as a tiny block cache
	Merged     int64 // persisted for free by a demand write to the block
}

// FreeShare reports the fraction of updates that never cost a dedicated
// bus turnaround — piggybacked, merged into demand writes, or dropped.
// The paper reports this effect exceeding 97%.
func (r *RCUStats) FreeShare() float64 {
	if r.Enqueued == 0 {
		return 0
	}
	return float64(r.Piggyback+r.Merged+r.Dropped) / float64(r.Enqueued)
}

// AlphaStats tracks the alpha admission mechanism (§III-A-1).
type AlphaStats struct {
	Bypassed    int64 // accesses sent straight to DDR4 pre-admission
	Admissions  int64 // pages crossing the α threshold
	BufferHits  int64
	BufferMiss  int64 // α-count fetches from main memory (page-table ride)
	FinalAlpha  int
	Adaptations int64
}

// GammaStats tracks the gamma invalidation mechanism (§III-A-2).
type GammaStats struct {
	Invalidations  int64 // last-write invalidations (write routed to DDR4)
	RCountUpdates  int64 // r-count persists needed after read hits
	FinalGamma     int
	ZeroReuseEvict int64 // victims evicted having never been reused
}

// Stats aggregates controller-level counters.  Interface-level traffic
// (bytes, activates, busy cycles) lives in the dram controllers.
type Stats struct {
	Demand      stats.CacheStats // HBM hit/miss for demand requests
	Reads       int64
	Writes      int64
	TagProbes   int64 // HBM accesses performed for tag checks
	Fills       int64
	FillBypass  int64 // miss fills skipped (Bear BAB / dirty-victim rule)
	VictimWB    int64 // dirty victims written to DDR4
	DirectToMem int64 // demand requests bypassing HBM entirely
	RefreshByp  int64 // bypasses specifically due to refresh
	SRAMAccess  int64 // controller SRAM touches (alpha buffer, RCU CAM)
	InSitu      int64 // in-DRAM r-count updates (Red-InSitu/Red-Gamma)

	Alpha AlphaStats
	Gamma GammaStats
	RCU   RCUStats

	// LastEvictWrite / LastEvictTotal reproduce the §II-C statistic: how
	// many blocks leave HBM with a write as their final touch.
	LastEvictWrite int64
	LastEvictTotal int64
}

// LastWriteShare is the §II-C ">82% of last accesses are writebacks" stat.
func (s *Stats) LastWriteShare() float64 {
	if s.LastEvictTotal == 0 {
		return 0
	}
	return float64(s.LastEvictWrite) / float64(s.LastEvictTotal)
}

// tagEntry is the controller's functional view of one direct-mapped HBM
// cache frame.  Physically the tag and r-count live in the spare ECC
// bits next to the data in DRAM; the simulator keeps them here so
// hit/miss decisions are exact while the *timing* of tag access is paid
// through the modeled TAD reads.
//
//redvet:state
type tagEntry struct {
	tag       uint64
	valid     bool
	dirty     bool
	rcount    uint8
	lastWrite bool
}

// tagStore is a direct-mapped tag array at transfer granularity G.
//
//redvet:state
type tagStore struct {
	entries []tagEntry
	mask    uint64
	gShift  uint64 // log2(granularity)
}

func newTagStore(capacityB int64, granularity int) *tagStore {
	n := capacityB / int64(granularity)
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("hbm: cache frames %d must be a positive power of two", n))
	}
	var gs uint64
	switch granularity {
	case 64:
		gs = 6
	case 128:
		gs = 7
	case 256:
		gs = 8
	default:
		panic("hbm: granularity must be 64, 128 or 256")
	}
	return &tagStore{entries: make([]tagEntry, n), mask: uint64(n - 1), gShift: gs}
}

// frame returns the frame index and the stored tag for addr.
//
//redvet:hotpath
func (t *tagStore) frame(addr mem.Addr) (idx uint64, tag uint64) {
	g := uint64(addr) >> t.gShift
	return g & t.mask, g
}

// lookup probes the tag store without modifying it.
//
//redvet:hotpath
func (t *tagStore) lookup(addr mem.Addr) (e *tagEntry, hit bool) {
	idx, tag := t.frame(addr)
	e = &t.entries[idx]
	return e, e.valid && e.tag == tag
}

// present reports whether addr currently resides in the cache.
//
//redvet:hotpath
func (t *tagStore) present(addr mem.Addr) bool {
	_, hit := t.lookup(addr)
	return hit
}

// base returns the first byte address covered by the entry's frame.
//
//redvet:hotpath
func (t *tagStore) base(e *tagEntry) mem.Addr {
	return mem.Addr(e.tag << t.gShift)
}

// granularity returns the frame size in bytes.
//
//redvet:hotpath
func (t *tagStore) granularity() int { return 1 << t.gShift }

// occupancy counts valid frames (tests).
func (t *tagStore) occupancy() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

// deps bundles what every controller needs.
type deps struct {
	eng *engine.Engine
	cfg *config.System
	hbm *dram.Controller // may be nil for NoHBM
	ddr *dram.Controller
}

// New constructs the controller for arch.  hbmCtl may be nil only for
// ArchNoHBM.
func New(arch Arch, eng *engine.Engine, cfg *config.System,
	hbmCtl, ddrCtl *dram.Controller) (Controller, error) {
	d := deps{eng: eng, cfg: cfg, hbm: hbmCtl, ddr: ddrCtl}
	if arch != ArchNoHBM && hbmCtl == nil {
		return nil, fmt.Errorf("hbm: architecture %s requires an HBM controller", arch)
	}
	switch arch {
	case ArchNoHBM:
		return newNoHBM(d), nil
	case ArchIdeal:
		return newIdeal(d), nil
	case ArchAlloy:
		return newAlloy(d), nil
	case ArchBear:
		return newBear(d), nil
	case ArchRedAlpha:
		return newRed(d, redFlags{alpha: true}), nil
	case ArchRedGamma:
		return newRed(d, redFlags{gamma: true, insitu: true}), nil
	case ArchRedBasic:
		return newRed(d, redFlags{alpha: true, gamma: true}), nil
	case ArchRedInSitu:
		return newRed(d, redFlags{alpha: true, gamma: true, insitu: true, refreshBypass: true}), nil
	case ArchRedCache:
		return newRed(d, redFlags{alpha: true, gamma: true, rcu: true, refreshBypass: true}), nil
	default:
		return nil, fmt.Errorf("hbm: unknown architecture %q", arch)
	}
}
