package hbm

import (
	"redcache/internal/config"
	"redcache/internal/mem"
	"redcache/internal/obs"
)

// alphaTable implements the alpha-counting mechanism of §III-A-1: one
// shared counter per 4 KB page counts accesses made while the page's
// blocks live in main memory.  Once the count reaches the adaptive α
// threshold the page is admitted and its blocks become cacheable; until
// then every request bypasses the HBM cache.
//
// The authoritative counters live in main memory next to the page table;
// an on-chip buffer with as many entries as the TLB shadows the hot
// subset.  A buffer miss costs one (posted) DDR4 read — the "free ride"
// on the page-walk path the paper describes — which the controller
// issues via the fetch callback.
//
// α adapts each epoch (DESIGN.md §5): if too many blocks leave the cache
// without ever being reused, admission was too eager and α rises; if the
// cache is mostly idle while traffic streams past it, α falls.
//
//redvet:state
type alphaTable struct {
	p config.RedCacheParams

	counts   map[mem.PageID]uint16
	admitted map[mem.PageID]bool

	// On-chip buffer: a FIFO ring of resident page IDs.
	buffer   map[mem.PageID]struct{}
	ring     []mem.PageID
	ringHead int

	alpha    int
	accesses int64
	// Epoch baselines for adaptation.
	lastAdapt    int64
	lastCycle    int64
	baseFills    int64
	baseHits     int64
	baseDemand   int64
	baseBypassed int64
	baseTotal    int64
	baseHBMBusy  int64
	baseDDRBusy  int64

	// fetch is invoked on a buffer miss to model the page-table ride.
	fetch func(page mem.PageID)

	// tr traces admissions and α moves (nil unless telemetry is wired).
	tr *obs.Tracer
}

func newAlphaTable(p config.RedCacheParams, fetch func(mem.PageID)) *alphaTable {
	return &alphaTable{
		p:        p,
		counts:   make(map[mem.PageID]uint16),
		admitted: make(map[mem.PageID]bool),
		buffer:   make(map[mem.PageID]struct{}),
		ring:     make([]mem.PageID, 0, p.AlphaBufferEnt),
		alpha:    p.AlphaInit,
		fetch:    fetch,
	}
}

// Alpha reports the current threshold.
func (a *alphaTable) Alpha() int { return a.alpha }

// observe counts one access to page and reports whether the page is
// admitted to the HBM cache.  st receives buffer hit/miss accounting.
func (a *alphaTable) observe(page mem.PageID, st *Stats) bool {
	a.accesses++
	st.SRAMAccess++
	if _, ok := a.buffer[page]; ok {
		st.Alpha.BufferHits++
	} else {
		st.Alpha.BufferMiss++
		a.insert(page)
		if a.fetch != nil {
			a.fetch(page)
		}
	}
	if a.admitted[page] {
		return true
	}
	c := a.counts[page]
	if c < 0xFFFF {
		c++
	}
	a.counts[page] = c
	// The shared per-page counter approximates the *average* access count
	// of the page's 64 blocks (§III-A-1), so the admission test compares
	// page accesses against α x BlocksPerPage: a page that is merely
	// streamed once (64 single-use blocks) averages 1 and stays out.
	if int(c) >= a.alpha*mem.BlocksPerPage {
		a.admitted[page] = true
		st.Alpha.Admissions++
		a.tr.Emit(obs.EvAdmission, uint64(page), int64(a.alpha), int64(c))
		delete(a.counts, page)
		return true
	}
	return false
}

// insert places page in the on-chip buffer, evicting FIFO.
func (a *alphaTable) insert(page mem.PageID) {
	if len(a.ring) < a.p.AlphaBufferEnt {
		a.ring = append(a.ring, page)
		a.buffer[page] = struct{}{}
		return
	}
	old := a.ring[a.ringHead]
	delete(a.buffer, old)
	a.ring[a.ringHead] = page
	a.ringHead = (a.ringHead + 1) % len(a.ring)
	a.buffer[page] = struct{}{}
}

// adaptSignals carries the epoch inputs maybeAdapt consumes besides the
// controller counters: the clock and the two interfaces' busy cycles.
type adaptSignals struct {
	now     int64
	hbmBusy int64
	ddrBusy int64
}

// maybeAdapt runs the epoch controller.  Its objective is the one §II-A
// sets for the whole design — balancing WideIO and DDRx utilization while
// avoiding useless data movement — expressed through signals that are
// exact at the controller regardless of r-count staleness: interface
// busy fractions, the demand hit rate, fill churn, and bypass share.
func (a *alphaTable) maybeAdapt(st *Stats, sig adaptSignals) {
	if a.accesses-a.lastAdapt < a.p.AlphaEpoch {
		return
	}
	dFills := st.Fills - a.baseFills
	dHits := st.Demand.Hits - a.baseHits
	dDemand := st.Demand.Accesses() - a.baseDemand
	dBypassed := st.Alpha.Bypassed - a.baseBypassed
	dTotal := (st.Reads + st.Writes) - a.baseTotal
	elapsed := sig.now - a.lastCycle

	var hitRate, fillShare, bypassShare float64
	if dDemand > 0 {
		hitRate = float64(dHits) / float64(dDemand)
		fillShare = float64(dFills) / float64(dDemand)
	}
	if dTotal > 0 {
		bypassShare = float64(dBypassed) / float64(dTotal)
	}
	var hbmU, ddrU float64
	if elapsed > 0 {
		hbmU = float64(sig.hbmBusy-a.baseHBMBusy) / float64(elapsed)
		ddrU = float64(sig.ddrBusy-a.baseDDRBusy) / float64(elapsed)
	}

	old := a.alpha
	switch {
	case dDemand > a.p.AlphaEpoch/8 && fillShare > 0.10 && hitRate < 0.70 &&
		hbmU >= ddrU && a.alpha < a.p.AlphaMax:
		// The cache path is churning fills without earning hits while
		// the in-package interface is the busier one: the admitted set
		// is too cold, raise the bar and shed traffic off-chip.
		a.alpha++
		st.Alpha.Adaptations++
	case ddrU > 0.25 && ddrU > 1.5*hbmU && bypassShare > 0.2 && a.alpha > a.p.AlphaMin:
		// Off-chip DDR4 is the bottleneck while the wide in-package
		// interface idles: shift traffic into the cache.
		a.alpha--
		st.Alpha.Adaptations++
	case bypassShare > 0.5 && hitRate > 0.75 && a.alpha > a.p.AlphaMin:
		// Most traffic streams past a cache that is working well:
		// admission is too strict, lower the bar.
		a.alpha--
		st.Alpha.Adaptations++
	}
	if a.alpha != old {
		a.tr.Emit(obs.EvAlphaMove, 0, int64(old), int64(a.alpha))
	}
	st.Alpha.FinalAlpha = a.alpha

	a.lastAdapt = a.accesses
	a.lastCycle = sig.now
	a.baseFills = st.Fills
	a.baseHits = st.Demand.Hits
	a.baseDemand = st.Demand.Accesses()
	a.baseBypassed = st.Alpha.Bypassed
	a.baseTotal = st.Reads + st.Writes
	a.baseHBMBusy = sig.hbmBusy
	a.baseDDRBusy = sig.ddrBusy
}
