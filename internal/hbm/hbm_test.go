package hbm

import (
	"testing"

	"redcache/internal/config"
	"redcache/internal/dram"
	"redcache/internal/engine"
	"redcache/internal/mem"
	"redcache/internal/stats"
)

// rig is a minimal test bench: one controller over tiny HBM and DDR4
// devices with refresh disabled for determinism.
type rig struct {
	eng      *engine.Engine
	cfg      *config.System
	hbmIface stats.Interface
	ddrIface stats.Interface
	hbmCtl   *dram.Controller
	ddrCtl   *dram.Controller
	ctl      Controller
}

func newRig(t *testing.T, arch Arch, mutate func(*config.System)) *rig {
	t.Helper()
	cfg := config.Tiny()
	cfg.HBM.Timing.TREFI = 0
	cfg.MainMem.Timing.TREFI = 0
	cfg.Red.AlphaInit = 1
	cfg.Red.AlphaMin = 1
	if mutate != nil {
		mutate(cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: engine.New(), cfg: cfg}
	r.hbmIface.Name = "WideIO"
	r.ddrIface.Name = "DDRx"
	r.hbmCtl = dram.NewController(r.eng, cfg.HBM, &r.hbmIface)
	r.ddrCtl = dram.NewController(r.eng, cfg.MainMem, &r.ddrIface)
	ctl, err := New(arch, r.eng, cfg, r.hbmCtl, r.ddrCtl)
	if err != nil {
		t.Fatal(err)
	}
	r.ctl = ctl
	return r
}

// access submits a request and runs the engine to completion, returning
// the completion cycle.
func (r *rig) access(addr mem.Addr, typ mem.AccessType) int64 {
	var done int64 = -1
	r.ctl.Submit(&mem.Request{Addr: addr, Type: typ, Core: 0,
		Issued: r.eng.Now(), Done: func(f int64) { done = f }})
	r.eng.Run()
	return done
}

// fillPage makes the address's 4 KB page hot enough to pass any α
// threshold of 1 (64 accesses).
func (r *rig) admitPage(addr mem.Addr) {
	page := addr.Page()
	for i := 0; i < mem.BlocksPerPage; i++ {
		r.access(page.Addr()+mem.Addr(i*mem.BlockSize), mem.Read)
	}
}

func TestNewRejectsMissingHBM(t *testing.T) {
	cfg := config.Tiny()
	eng := engine.New()
	ddr := dram.NewController(eng, cfg.MainMem, &stats.Interface{})
	if _, err := New(ArchAlloy, eng, cfg, nil, ddr); err == nil {
		t.Fatal("Alloy without HBM controller should fail")
	}
	if _, err := New(Arch("bogus"), eng, cfg, ddr, ddr); err == nil {
		t.Fatal("unknown arch should fail")
	}
	if _, err := New(ArchNoHBM, eng, cfg, nil, ddr); err != nil {
		t.Fatalf("NoHBM without HBM controller must work: %v", err)
	}
}

func TestAllArchsHaveNames(t *testing.T) {
	for _, a := range All() {
		r := newRig(t, a, nil)
		if r.ctl.Name() != a {
			t.Errorf("controller for %s reports %s", a, r.ctl.Name())
		}
	}
	if len(Figure9Archs()) != 7 {
		t.Errorf("Fig 9 compares 7 architectures")
	}
}

func TestNoHBMUsesOnlyDDR(t *testing.T) {
	r := newRig(t, ArchNoHBM, nil)
	if d := r.access(0, mem.Read); d <= 0 {
		t.Fatal("read never completed")
	}
	r.access(64, mem.Write)
	if r.hbmIface.TotalBytes() != 0 {
		t.Fatal("NoHBM must not touch the HBM interface")
	}
	if r.ddrIface.TotalBytes() != 128 {
		t.Fatalf("DDR bytes = %d, want 128", r.ddrIface.TotalBytes())
	}
	if r.ctl.Stats().DirectToMem != 2 {
		t.Fatal("both requests should count as direct")
	}
}

func TestIdealNeverMissesAndPaysTagTraffic(t *testing.T) {
	r := newRig(t, ArchIdeal, nil)
	r.access(0, mem.Read)
	r.access(1<<20, mem.Read) // never seen before: still a hit
	if s := r.ctl.Stats(); s.Demand.Misses != 0 || s.Demand.Hits != 2 {
		t.Fatalf("ideal hits/misses = %d/%d", s.Demand.Hits, s.Demand.Misses)
	}
	if r.ddrIface.TotalBytes() != 0 {
		t.Fatal("ideal must not touch DDR")
	}
	before := r.hbmIface.TotalBytes()
	r.access(0, mem.Write)
	// A write is a tag-check read plus a data write: two 64 B accesses.
	if got := r.hbmIface.TotalBytes() - before; got != 128 {
		t.Fatalf("ideal write moved %d HBM bytes, want 128", got)
	}
}

func TestAlloyReadMissFillsAndHits(t *testing.T) {
	r := newRig(t, ArchAlloy, nil)
	d1 := r.access(0, mem.Read)
	s := r.ctl.Stats()
	if s.Demand.Misses != 1 || s.Fills != 1 {
		t.Fatalf("after miss: misses=%d fills=%d", s.Demand.Misses, s.Fills)
	}
	d2 := r.access(0, mem.Read)
	if s.Demand.Hits != 1 {
		t.Fatalf("second access should hit")
	}
	if d2-0 >= d1 {
		t.Log("note: hit latency vs miss latency depends on queue state")
	}
	if r.ddrIface.ReadBytes != 64 {
		t.Fatalf("DDR read bytes = %d, want 64", r.ddrIface.ReadBytes)
	}
}

func TestAlloyWriteHitCostsTwoHBMAccesses(t *testing.T) {
	r := newRig(t, ArchAlloy, nil)
	r.access(0, mem.Read) // install
	before := r.hbmIface.TotalBytes()
	r.access(0, mem.Write)
	// Probe read (64) + data write (64).
	if got := r.hbmIface.TotalBytes() - before; got != 128 {
		t.Fatalf("write hit moved %d HBM bytes, want 128", got)
	}
}

func TestAlloyConflictEvictsDirtyVictimToDDR(t *testing.T) {
	r := newRig(t, ArchAlloy, nil)
	frames := r.cfg.HBMCacheB / 64
	a := mem.Addr(0)
	b := mem.Addr(frames * 64) // same frame as a
	r.access(a, mem.Write)     // write-allocate: a dirty
	before := r.ddrIface.WriteBytes
	r.access(b, mem.Read) // conflict: evict dirty a
	if got := r.ddrIface.WriteBytes - before; got != 64 {
		t.Fatalf("victim writeback bytes = %d, want 64", got)
	}
	if r.ctl.Stats().VictimWB != 1 {
		t.Fatalf("victimWB = %d, want 1", r.ctl.Stats().VictimWB)
	}
	// a is gone: next read misses.
	miss := r.ctl.Stats().Demand.Misses
	r.access(a, mem.Read)
	if r.ctl.Stats().Demand.Misses != miss+1 {
		t.Fatal("evicted block should miss")
	}
}

func TestBearWritebackMissGoesDirectToDDR(t *testing.T) {
	r := newRig(t, ArchBear, nil)
	before := r.hbmIface.TotalBytes()
	r.access(0, mem.Write) // absent: DCP sends it straight to DDR4
	if r.hbmIface.TotalBytes() != before {
		t.Fatal("writeback miss must not touch HBM (DCP)")
	}
	if r.ddrIface.WriteBytes != 64 {
		t.Fatalf("DDR write bytes = %d, want 64", r.ddrIface.WriteBytes)
	}
	if r.ctl.Stats().DirectToMem != 1 {
		t.Fatal("should count as direct-to-mem")
	}
}

func TestBearWriteHitSkipsProbe(t *testing.T) {
	r := newRig(t, ArchBear, nil)
	r.access(0, mem.Read) // install (sample sets always fill eventually)
	if !r.tags(t).present(0) {
		t.Skip("BAB bypassed this fill; presence-dependent test")
	}
	before := r.hbmIface.TotalBytes()
	r.access(0, mem.Write)
	// DCP knows it is present: one HBM write, no probe read.
	if got := r.hbmIface.TotalBytes() - before; got != 64 {
		t.Fatalf("write hit moved %d HBM bytes, want 64", got)
	}
}

// tags exposes the tag store of the controller under test.
func (r *rig) tags(t *testing.T) *tagStore {
	t.Helper()
	c, ok := r.ctl.(*tad)
	if !ok {
		t.Fatalf("controller %T has no tag store", r.ctl)
	}
	return c.tags
}

func TestBearBypassesFillsWhenHitRateLow(t *testing.T) {
	r := newRig(t, ArchBear, nil)
	// A pipelined single-use stream keeps the HBM bus busy while the hit
	// EWMA collapses, so BAB starts bypassing fills.
	pending := 0
	for i := int64(0); i < 8000; i++ {
		pending++
		r.ctl.Submit(&mem.Request{Addr: mem.Addr(i * 64), Type: mem.Read,
			Core: 0, Issued: r.eng.Now(), Done: func(int64) { pending-- }})
		if i%16 == 15 {
			r.eng.RunUntil(r.eng.Now() + 100)
		}
	}
	r.eng.Run()
	s := r.ctl.Stats()
	if pending != 0 {
		t.Fatalf("%d requests lost", pending)
	}
	if s.FillBypass == 0 {
		t.Fatal("BAB never bypassed a fill on a pure stream")
	}
	if s.FillBypass+s.Fills != s.Demand.Misses {
		t.Fatalf("fills %d + bypasses %d != misses %d",
			s.Fills, s.FillBypass, s.Demand.Misses)
	}
}

func TestTagStoreFrameMapping(t *testing.T) {
	ts := newTagStore(1<<20, 64)
	a, b := mem.Addr(0), mem.Addr(1<<20) // same frame, different tag
	ia, ta := ts.frame(a)
	ib, tb := ts.frame(b)
	if ia != ib {
		t.Fatal("addresses 1MB apart in a 1MB cache must share a frame")
	}
	if ta == tb {
		t.Fatal("distinct blocks must have distinct tags")
	}
	if ts.granularity() != 64 {
		t.Fatal("granularity wrong")
	}
}

func TestTagStoreGranularity(t *testing.T) {
	ts := newTagStore(1<<20, 256)
	// Addresses within the same 256 B frame share an entry.
	i1, _ := ts.frame(0)
	i2, _ := ts.frame(192)
	if i1 != i2 {
		t.Fatal("256B-granularity frames must span four blocks")
	}
	e, _ := ts.lookup(0)
	ts.entries[i1].valid = true
	if base := ts.base(e); base != 0 {
		t.Fatalf("base = %#x", uint64(base))
	}
}

func TestTagStoreRejectsBadShapes(t *testing.T) {
	for _, f := range []func(){
		func() { newTagStore(3<<10, 64) }, // not a power of two frames
		func() { newTagStore(1<<20, 96) }, // bad granularity
		func() { newTagStore(0, 64) },     // empty
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
