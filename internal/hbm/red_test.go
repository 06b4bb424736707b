package hbm

import (
	"testing"

	"redcache/internal/config"
	"redcache/internal/mem"
)

// redRig builds a RedCache-family rig with α effectively disabled for
// admission-independent tests (every page admits after one access).
func instantAdmit(cfg *config.System) {
	cfg.Red.AlphaInit = 1
	cfg.Red.AlphaMin = 1
	cfg.Red.AlphaEpoch = 1 << 40 // no adaptation during the test
}

func TestRedAlphaBypassesColdPages(t *testing.T) {
	r := newRig(t, ArchRedAlpha, func(cfg *config.System) {
		cfg.Red.AlphaInit = 2
		cfg.Red.AlphaEpoch = 1 << 40
	})
	// First accesses to a page go straight to DDR4: the page needs
	// α x BlocksPerPage = 128 accesses before admission.
	r.access(0, mem.Read)
	if r.hbmIface.TotalBytes() != 0 {
		t.Fatal("cold access must bypass the HBM cache")
	}
	s := r.ctl.Stats()
	if s.Alpha.Bypassed != 1 || s.DirectToMem != 1 {
		t.Fatalf("bypassed=%d direct=%d", s.Alpha.Bypassed, s.DirectToMem)
	}
	// Hammer the page past the threshold.
	for i := 0; i < 2*mem.BlocksPerPage; i++ {
		r.access(mem.Addr((i%mem.BlocksPerPage)*64), mem.Read)
	}
	if s.Alpha.Admissions != 1 {
		t.Fatalf("admissions = %d, want 1", s.Alpha.Admissions)
	}
	if r.hbmIface.TotalBytes() == 0 {
		t.Fatal("admitted page should reach the HBM cache")
	}
}

func TestRedAdmittedReadMissFillsLikeAlloy(t *testing.T) {
	r := newRig(t, ArchRedBasic, instantAdmit)
	r.admitPage(0)
	s := r.ctl.Stats()
	if s.Fills == 0 {
		t.Fatal("admitted misses should fill")
	}
	r.access(0, mem.Read) // block 0 was bypassed pre-admission: fills now
	hits := s.Demand.Hits
	r.access(0, mem.Read)
	if s.Demand.Hits != hits+1 {
		t.Fatal("resident block should hit")
	}
}

func TestRedDirtyVictimFillElimination(t *testing.T) {
	r := newRig(t, ArchRedBasic, instantAdmit)
	frames := r.cfg.HBMCacheB / 64
	a := mem.Addr(0)
	b := mem.Addr(frames * 64) // conflicts with a
	r.admitPage(a)
	r.admitPage(b)
	r.access(a, mem.Write) // make a's frame dirty
	fills := r.ctl.Stats().Fills
	bypass := r.ctl.Stats().FillBypass
	r.access(b, mem.Read) // miss on dirty victim: serve from DDR4, no fill
	s := r.ctl.Stats()
	if s.Fills != fills {
		t.Fatal("dirty-victim miss must not fill (§IV-D)")
	}
	if s.FillBypass != bypass+1 {
		t.Fatalf("fillBypass = %d, want %d", s.FillBypass, bypass+1)
	}
	// The dirty victim must still be resident.
	if !r.tags(t).present(a) {
		t.Fatal("dirty victim should have been kept")
	}
}

func TestRedGammaInvalidatesAtLastWrite(t *testing.T) {
	r := newRig(t, ArchRedGamma, func(cfg *config.System) {
		instantAdmit(cfg)
		cfg.Red.GammaInit = 4
		cfg.Red.GammaMin = 4
		cfg.Red.GammaMax = 4 // freeze γ
	})
	r.access(0, mem.Read) // miss + fill, r-count 0
	for i := 0; i < 5; i++ {
		r.access(0, mem.Read) // r-count climbs past γ=4
	}
	before := r.ddrIface.WriteBytes
	r.access(0, mem.Write) // r-count > γ: invalidate, write to DDR4
	s := r.ctl.Stats()
	if s.Gamma.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Gamma.Invalidations)
	}
	if r.ddrIface.WriteBytes-before != 64 {
		t.Fatal("invalidated write must go to main memory")
	}
	if r.tags(t).present(0) {
		t.Fatal("block must be invalid after gamma invalidation")
	}
	// The §II-C stat: this block left HBM with a write as last access.
	if s.LastEvictWrite != 1 {
		t.Fatalf("lastEvictWrite = %d, want 1", s.LastEvictWrite)
	}
}

func TestRedGammaYoungWriteStaysCached(t *testing.T) {
	r := newRig(t, ArchRedGamma, func(cfg *config.System) {
		instantAdmit(cfg)
		cfg.Red.GammaInit = 100
		cfg.Red.GammaMin = 100
		cfg.Red.GammaMax = 100
	})
	r.access(0, mem.Read)
	r.access(0, mem.Write) // r-count 1 < γ: normal HBM write
	s := r.ctl.Stats()
	if s.Gamma.Invalidations != 0 {
		t.Fatal("young block must not be invalidated")
	}
	if !r.tags(t).present(0) {
		t.Fatal("block should stay resident")
	}
	e, _ := r.tags(t).lookup(0)
	if !e.dirty {
		t.Fatal("write hit should dirty the block")
	}
}

func TestGammaAdaptsTowardObservedCounts(t *testing.T) {
	r := newRig(t, ArchRedGamma, func(cfg *config.System) {
		instantAdmit(cfg)
		cfg.Red.GammaInit = 8
		cfg.Red.GammaMin = 2
		cfg.Red.GammaMax = 64
	})
	red := r.ctl.(*tad)
	for i := 0; i < 40; i++ {
		r.access(0, mem.Read)
	}
	if red.Gamma() <= 8 {
		t.Fatalf("γ = %d, should have risen toward high r-counts", red.Gamma())
	}
}

func TestGammaDescendsSlowly(t *testing.T) {
	r := newRig(t, ArchRedGamma, func(cfg *config.System) {
		instantAdmit(cfg)
		cfg.Red.GammaInit = 32
		cfg.Red.GammaMin = 2
		cfg.Red.GammaMax = 64
	})
	red := r.ctl.(*tad)
	// Eight low-count observations move γ down by one.
	for i := 0; i < 8; i++ {
		a := mem.Addr(i * 64)
		r.access(a, mem.Read) // fill
		r.access(a, mem.Read) // hit with r-count 1 << γ
	}
	if red.Gamma() != 31 {
		t.Fatalf("γ = %d, want 31 after one slow step", red.Gamma())
	}
}

func TestRegretRaisesGamma(t *testing.T) {
	r := newRig(t, ArchRedGamma, func(cfg *config.System) {
		instantAdmit(cfg)
		cfg.Red.GammaInit = 2
		cfg.Red.GammaMin = 2
		cfg.Red.GammaMax = 64
	})
	red := r.ctl.(*tad)
	r.access(0, mem.Read)
	r.access(0, mem.Read)
	r.access(0, mem.Read)
	r.access(0, mem.Write) // invalidated (r-count > 2)
	if red.s.Gamma.Invalidations != 1 {
		t.Skipf("γ drifted before invalidation (γ=%d)", red.Gamma())
	}
	g := red.Gamma()
	r.access(0, mem.Read) // regret: the invalidated block came back
	if red.Gamma() < g+2 {
		t.Fatalf("γ = %d, want >= %d after regret", red.Gamma(), g+2)
	}
}

// warm admits addr's page and installs addr in the cache.
func (r *rig) warm(addr mem.Addr) {
	r.admitPage(addr)
	r.access(addr, mem.Read) // miss + fill: resident with r-count 0
}

func TestRedBasicPaysImmediateUpdateWrites(t *testing.T) {
	r := newRig(t, ArchRedBasic, instantAdmit)
	r.warm(0)
	before := r.hbmIface.WriteBytes
	r.access(0, mem.Read) // hit: immediate 8 B r-count write
	if got := r.hbmIface.WriteBytes - before; got != 8 {
		t.Fatalf("r-count update wrote %d bytes, want 8", got)
	}
}

func TestRedInSituUpdatesAreFreeOnBus(t *testing.T) {
	r := newRig(t, ArchRedInSitu, instantAdmit)
	r.warm(0)
	before := r.hbmIface.WriteBytes
	r.access(0, mem.Read)
	if r.hbmIface.WriteBytes != before {
		t.Fatal("in-situ update must not move bus bytes")
	}
	if r.ctl.Stats().InSitu != 1 {
		t.Fatalf("inSitu = %d, want 1", r.ctl.Stats().InSitu)
	}
}

func TestRedCacheDefersUpdatesToRCU(t *testing.T) {
	r := newRig(t, ArchRedCache, instantAdmit)
	r.warm(0)
	before := r.hbmIface.WriteBytes
	r.access(0, mem.Read) // hit: update parked in the RCU
	if r.hbmIface.WriteBytes != before {
		t.Fatal("deferred update must not write immediately")
	}
	s := r.ctl.Stats()
	if s.RCU.Enqueued != 1 {
		t.Fatalf("RCU enqueued = %d, want 1", s.RCU.Enqueued)
	}
	// Drain persists the pending update.
	r.ctl.Drain()
	r.eng.Run()
	if s.RCU.DrainFlush != 1 {
		t.Fatalf("drain flushes = %d, want 1", s.RCU.DrainFlush)
	}
	if got := r.hbmIface.WriteBytes - before; got != 8 {
		t.Fatalf("drain wrote %d bytes, want 8", got)
	}
}

// TestRCUInvariantRequiresResidency: a pending r-count update whose
// block has left the tag store is an orphan the eviction paths must
// never leave behind, and the online invariant check must catch one.
func TestRCUInvariantRequiresResidency(t *testing.T) {
	r := newRig(t, ArchRedCache, instantAdmit)
	r.warm(0)
	r.access(0, mem.Read) // hit: update parked in the RCU
	c := r.ctl.(*tad)
	if c.rcu.Len() != 1 {
		t.Fatalf("RCU holds %d updates, want 1", c.rcu.Len())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("resident pending update flagged: %v", err)
	}
	e, _ := c.tags.lookup(0)
	e.valid = false // drop the frame behind the CAM's back
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("orphaned RCU entry passed the invariant check")
	}
}

func TestRedCacheDemandWriteMergesUpdate(t *testing.T) {
	r := newRig(t, ArchRedCache, func(cfg *config.System) {
		instantAdmit(cfg)
		cfg.Red.GammaInit = 100
		cfg.Red.GammaMin = 100
		cfg.Red.GammaMax = 100
	})
	r.warm(0)
	r.access(0, mem.Read)  // RCU holds count 1
	r.access(0, mem.Write) // demand write persists it for free
	s := r.ctl.Stats()
	if s.RCU.Merged != 1 {
		t.Fatalf("merged = %d, want 1", s.RCU.Merged)
	}
	e, hit := r.tags(t).lookup(0)
	if !hit || e.rcount < 2 {
		t.Fatalf("persisted rcount = %d (hit=%v), want >= 2", e.rcount, hit)
	}
}

func TestRedCacheStaleCountsWhenRCUOverflows(t *testing.T) {
	// Unit-level: a full RCU queue ages out its oldest update without
	// writing it — the DRAM copy of that r-count stays stale.
	r := newRig(t, ArchRedCache, instantAdmit)
	persisted := map[mem.Addr]uint8{}
	var st RCUStats
	m := newRCUManager(r.hbmCtl, 2, &st,
		func(a mem.Addr, c uint8) { persisted[a] = c })
	m.put(0, 1)
	m.put(64, 1)
	m.put(128, 1) // full: the update for block 0 is dropped
	if st.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped)
	}
	if _, ok := persisted[0]; ok {
		t.Fatal("dropped update must not persist")
	}
	if _, ok := m.lookup(0); ok {
		t.Fatal("dropped entry must leave the CAM")
	}
	if _, ok := m.lookup(64); !ok {
		t.Fatal("younger entries must survive")
	}
	// Refreshing an existing entry must not drop anything.
	m.put(64, 2)
	if st.Dropped != 1 || m.Len() != 2 {
		t.Fatalf("dedup put dropped entries: %d/%d", st.Dropped, m.Len())
	}
	if cnt, _ := m.lookup(64); cnt != 2 {
		t.Fatalf("refreshed count = %d, want 2", cnt)
	}
}

func TestRCUPiggybackPersists(t *testing.T) {
	r := newRig(t, ArchRedCache, instantAdmit)
	persisted := map[mem.Addr]uint8{}
	var st RCUStats
	m := newRCUManager(r.hbmCtl, 8, &st,
		func(a mem.Addr, c uint8) { persisted[a] = c })
	m.put(0, 3)
	extra := m.onWrite(r.hbmCtl.Map(0))
	if extra != rcUpdateBytes {
		t.Fatalf("piggyback bytes = %d, want %d", extra, rcUpdateBytes)
	}
	if persisted[0] != 3 || st.Piggyback != 1 {
		t.Fatalf("piggyback did not persist: %v / %d", persisted, st.Piggyback)
	}
	if m.Len() != 0 {
		t.Fatal("piggybacked entry must leave the queue")
	}
	// A write to an unrelated row carries nothing.
	m.put(64, 1)
	far := r.hbmCtl.Map(1 << 24)
	if m.onWrite(far) != 0 {
		t.Fatal("unrelated row must not piggyback")
	}
}

func TestRCUBlockCacheServesReads(t *testing.T) {
	r := newRig(t, ArchRedCache, instantAdmit)
	r.warm(0)
	r.access(0, mem.Read) // hit, parks block in RCU RAM
	hbmBytes := r.hbmIface.TotalBytes()
	start := r.eng.Now()
	d := r.access(0, mem.Read) // served from the RCU RAM
	s := r.ctl.Stats()
	if s.RCU.BlockHits != 1 {
		t.Fatalf("block hits = %d, want 1", s.RCU.BlockHits)
	}
	if r.hbmIface.TotalBytes() != hbmBytes {
		t.Fatal("RCU block hit must not touch HBM")
	}
	if got := d - start; got != rcuHitLatency {
		t.Fatalf("RCU hit latency = %d, want %d", got, rcuHitLatency)
	}
}

func TestAlphaTableAdmissionArithmetic(t *testing.T) {
	p := config.Tiny().Red
	p.AlphaInit = 2
	at := newAlphaTable(p, nil)
	var st Stats
	for i := 0; i < 2*mem.BlocksPerPage-1; i++ {
		if at.observe(7, &st) {
			t.Fatalf("admitted after %d accesses, want %d", i+1, 2*mem.BlocksPerPage)
		}
	}
	if !at.observe(7, &st) {
		t.Fatal("not admitted at the threshold")
	}
	if !at.observe(7, &st) {
		t.Fatal("admission must be sticky")
	}
	if st.Alpha.Admissions != 1 {
		t.Fatalf("admissions = %d", st.Alpha.Admissions)
	}
}

func TestAlphaBufferFIFO(t *testing.T) {
	p := config.Tiny().Red
	p.AlphaBufferEnt = 2
	fetched := []mem.PageID{}
	at := newAlphaTable(p, func(pg mem.PageID) { fetched = append(fetched, pg) })
	var st Stats
	at.observe(1, &st) // miss, insert
	at.observe(2, &st) // miss, insert
	at.observe(1, &st) // hit
	at.observe(3, &st) // miss, evicts 1 (FIFO)
	at.observe(1, &st) // miss again
	if st.Alpha.BufferHits != 1 || st.Alpha.BufferMiss != 4 {
		t.Fatalf("hits/misses = %d/%d, want 1/4", st.Alpha.BufferHits, st.Alpha.BufferMiss)
	}
	if len(fetched) != 4 {
		t.Fatalf("fetches = %d, want 4", len(fetched))
	}
}

func TestAlphaAdaptationRaisesOnChurn(t *testing.T) {
	p := config.Tiny().Red
	p.AlphaInit = 2
	p.AlphaMin = 1
	p.AlphaMax = 8
	p.AlphaEpoch = 10
	at := newAlphaTable(p, nil)
	var st Stats
	// Simulate an epoch of churn: lots of demand, fills, few hits, and a
	// busier HBM interface.
	st.Reads = 100
	st.Demand.Misses = 90
	st.Demand.Hits = 10
	st.Fills = 80
	for i := 0; i < 20; i++ {
		at.observe(mem.PageID(i), &st)
	}
	at.maybeAdapt(&st, adaptSignals{now: 1000, hbmBusy: 600, ddrBusy: 100})
	if at.Alpha() != 3 {
		t.Fatalf("α = %d, want 3 after churn epoch", at.Alpha())
	}
}

func TestAlphaAdaptationLowersWhenDDRBottlenecked(t *testing.T) {
	p := config.Tiny().Red
	p.AlphaInit = 4
	p.AlphaMin = 1
	p.AlphaMax = 8
	p.AlphaEpoch = 10
	at := newAlphaTable(p, nil)
	var st Stats
	st.Reads = 100
	st.Alpha.Bypassed = 80
	for i := 0; i < 20; i++ {
		at.observe(mem.PageID(i), &st)
	}
	at.maybeAdapt(&st, adaptSignals{now: 1000, hbmBusy: 50, ddrBusy: 400})
	if at.Alpha() != 3 {
		t.Fatalf("α = %d, want 3 when DDR is the bottleneck", at.Alpha())
	}
}

func TestRefreshBypassRequiresAllConditions(t *testing.T) {
	r := newRig(t, ArchRedCache, func(cfg *config.System) {
		instantAdmit(cfg)
		cfg.HBM.Timing.TREFI = 3000
		cfg.HBM.Timing.TRFC = 2000
	})
	// Keep the HBM channels busy so refresh windows overlap arrivals:
	// submit pipelined batches without draining in between.  The second
	// pass touches admitted pages whose blocks are mostly absent (the
	// cache is far smaller than the footprint), which is exactly the
	// population refresh bypass serves.
	pending := 0
	blocks := int64(2 * r.cfg.HBMCacheB / 64)
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < blocks; i++ {
			pending++
			r.ctl.Submit(&mem.Request{
				Addr: mem.Addr(i * 64), Type: mem.Read, Core: 0,
				Issued: r.eng.Now(), Done: func(int64) { pending-- },
			})
			if i%4 == 3 {
				// Gentle pacing: keep channels active without flooding
				// DDR4 (the bypass is gated on off-chip slack).
				r.eng.RunUntil(r.eng.Now() + 400)
			}
		}
	}
	r.eng.Run()
	if pending != 0 {
		t.Fatalf("%d requests never completed", pending)
	}
	if r.ctl.Stats().RefreshByp == 0 {
		t.Fatal("refresh bypass never triggered under refresh-heavy config")
	}
}
