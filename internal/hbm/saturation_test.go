package hbm

import (
	"testing"

	"redcache/internal/config"
	"redcache/internal/mem"
)

// This file audits the saturating-counter arithmetic at its width
// limits: the 16-bit α page counters, the 8-bit r-count field, and the
// γ estimator.  None of these may wrap, and every adaptive move must
// stay inside its configured bounds even when fed the maximum
// representable value.

// TestAlphaCounterSaturates pins the shared page counter at 0xFFFF: an
// unreachable threshold must leave the counter saturated forever, never
// wrapped back to zero (which would silently restart admission).
func TestAlphaCounterSaturates(t *testing.T) {
	a := newAlphaTable(config.Tiny().Red, nil)
	a.alpha = 2000 // threshold 2000 x 64 = 128000 > 0xFFFF: unreachable
	st := &Stats{}
	page := mem.PageID(1)
	for i := 0; i < 0xFFFF+500; i++ {
		if a.observe(page, st) {
			t.Fatalf("page admitted after %d accesses against an unreachable threshold", i+1)
		}
	}
	if c := a.counts[page]; c != 0xFFFF {
		t.Fatalf("counter = %#x after overflow-range hammering, want pinned 0xFFFF", c)
	}
}

// TestAlphaMaxThresholdStaysReachable documents why config.Validate
// clamps AlphaMax to 1023: the largest legal threshold must sit below
// the counter's saturation point, or admission would become impossible.
func TestAlphaMaxThresholdStaysReachable(t *testing.T) {
	const alphaCap = 1023
	if alphaCap*mem.BlocksPerPage > 0xFFFF {
		t.Fatalf("alpha cap %d x %d blocks overflows the 16-bit page counter",
			alphaCap, mem.BlocksPerPage)
	}
	a := newAlphaTable(config.Tiny().Red, nil)
	a.alpha = alphaCap
	st := &Stats{}
	page := mem.PageID(7)
	admitted := false
	for i := 0; i < 0xFFFF && !admitted; i++ {
		admitted = a.observe(page, st)
	}
	if !admitted {
		t.Fatal("admission unreachable at the maximum legal α")
	}
	cfg := config.Tiny()
	cfg.Red.AlphaMax = alphaCap + 1
	if err := cfg.Validate(); err == nil {
		t.Error("config accepted an α range past the counter's reach")
	}
}

// TestUpdateGammaRespectsBounds drives the estimator with the extreme
// r-count values a corrupted read produces (0 after a clamp, 255 after
// saturation) and checks γ never leaves [GammaMin, GammaMax].
func TestUpdateGammaRespectsBounds(t *testing.T) {
	r := newRig(t, ArchRedCache, instantAdmit)
	c := r.ctl.(*red)
	lo, hi := c.d.cfg.Red.GammaMin, c.d.cfg.Red.GammaMax

	c.gamma = hi
	for i := 0; i < 100; i++ {
		c.updateGamma(255)
	}
	if c.gamma != hi {
		t.Fatalf("γ = %d after saturated r-counts, want pinned at max %d", c.gamma, hi)
	}

	c.gamma = lo
	for i := 0; i < 100; i++ {
		c.updateGamma(0)
	}
	if c.gamma != lo {
		t.Fatalf("γ = %d after clamped r-counts, want pinned at min %d", c.gamma, lo)
	}

	// Descent is deliberately 8x slower than ascent (DESIGN.md §5).
	if hi > lo+1 {
		c.gamma, c.gammaDown = lo+1, 0
		for i := 0; i < 7; i++ {
			c.updateGamma(0)
		}
		if c.gamma != lo+1 {
			t.Fatalf("γ descended after %d low observations, want 8", 7)
		}
		c.updateGamma(0)
		if c.gamma != lo {
			t.Fatal("γ failed to descend on the 8th low observation")
		}
	}
}

// TestCheckRegretCapsAtGammaMax: the +2 regret bump must be all-or-
// nothing at the ceiling — never a partial move, never past the bound —
// and must consume the regret entry either way.
func TestCheckRegretCapsAtGammaMax(t *testing.T) {
	r := newRig(t, ArchRedCache, instantAdmit)
	c := r.ctl.(*red)
	hi := c.d.cfg.Red.GammaMax
	addr := mem.Addr(0x40)

	c.gamma = hi - 1
	c.noteInvalidation(addr)
	c.checkRegret(addr)
	if c.gamma != hi-1 {
		t.Fatalf("γ = %d, want unchanged %d when +2 would pass the max", c.gamma, hi-1)
	}
	if _, ok := c.regret[addr.Align()]; ok {
		t.Fatal("suppressed regret bump left its entry behind")
	}

	c.gamma = hi - 2
	c.noteInvalidation(addr)
	c.checkRegret(addr)
	if c.gamma != hi {
		t.Fatalf("γ = %d, want exactly max %d", c.gamma, hi)
	}
}

// TestRegretRingSaturates: the regret tracker is a bounded SRAM; an
// invalidation storm must cycle the ring, not grow it.
func TestRegretRingSaturates(t *testing.T) {
	r := newRig(t, ArchRedCache, instantAdmit)
	c := r.ctl.(*red)
	for i := 0; i < 3*regretCap; i++ {
		c.noteInvalidation(mem.Addr(i * mem.BlockSize))
	}
	if len(c.regretRing) != regretCap {
		t.Fatalf("regret ring grew to %d, cap is %d", len(c.regretRing), regretCap)
	}
	if len(c.regret) > regretCap {
		t.Fatalf("regret set %d exceeds ring cap %d", len(c.regret), regretCap)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after ring wrap: %v", err)
	}
}

// TestRCountPinsAtMax hammers one resident block with reads until its
// r-count must sit at 255, then keeps going: the visible count may
// never wrap, and γ must stay in range throughout.
func TestRCountPinsAtMax(t *testing.T) {
	r := newRig(t, ArchRedCache, instantAdmit)
	c := r.ctl.(*red)
	addr := mem.Addr(0)
	r.admitPage(addr)
	r.access(addr, mem.Read) // fill
	for i := 0; i < 300; i++ {
		r.access(addr, mem.Read)
	}
	e, hit := c.tags.lookup(addr)
	if !hit {
		t.Fatal("hammered block not resident")
	}
	if got := c.visibleCount(e, addr); got != 255 {
		t.Fatalf("visible r-count = %d after 300 reads, want saturated 255", got)
	}
	for i := 0; i < 10; i++ {
		r.access(addr, mem.Read)
	}
	if got := c.visibleCount(e, addr); got != 255 {
		t.Fatalf("r-count wrapped to %d past saturation", got)
	}
	if c.gamma < c.d.cfg.Red.GammaMin || c.gamma > c.d.cfg.Red.GammaMax {
		t.Fatalf("γ = %d escaped [%d, %d] under saturated counts",
			c.gamma, c.d.cfg.Red.GammaMin, c.d.cfg.Red.GammaMax)
	}
}
