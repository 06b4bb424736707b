//go:build !race

package sim

import (
	"runtime"
	"testing"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// maxMallocsPerKEvent bounds the heap allocations a whole run adds per
// 1,000 extra engine events, for every architecture.  The warmed
// simulator allocates only while its pools, rings and maps grow toward
// their working-set size: LU at Tiny reads at most 11.6 per 1k
// (RedCache, whose α and regret maps are still filling) and under 1.5
// on the architectures without α counting.  One allocation per request
// on a hot path is several times more: a closure per read hit in the
// RedCache family reads 62–113 per 1k, and a request copied to the
// heap per core miss reads 115–147 on every architecture.  A bound of
// 25 leaves twice the tree's worst case as headroom and still catches
// either defect alone with a margin of more than 2x.
const maxMallocsPerKEvent = 25

// mallocs returns the heap allocations made while f runs.  The test
// calling it must not run in parallel with others: the counter is
// process-wide.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// firstHalf returns t with each stream cut to its first half.
func firstHalf(t *trace.Trace) *trace.Trace {
	h := &trace.Trace{Name: t.Name}
	for _, s := range t.Streams {
		h.Streams = append(h.Streams, s[:len(s)/2])
	}
	return h
}

// TestWholeRunAllocationsPerEvent is the whole-run allocation guard:
// for every architecture it runs LU at Tiny on the full trace and on
// each stream's first half, and bounds the mallocs per extra 1k events.
// Setup (machine wiring, tag stores, queues) is the same in both runs
// and cancels, so the quotient is what the run adds per unit of work —
// including the hbm controllers' Submit paths, which no unit-level
// AllocsPerRun guard covers.  (Race instrumentation perturbs
// allocation accounting; the guard is compiled out under -race.)
func TestWholeRunAllocationsPerEvent(t *testing.T) {
	cfg := config.Tiny()
	full := workloads.LU(cfg.CPU.Cores, workloads.Tiny, 1)
	half := firstHalf(full)
	for _, arch := range hbm.All() {
		run := func(tr *trace.Trace) (uint64, uint64) {
			var res *Result
			n := mallocs(func() {
				var err error
				if res, err = Run(cfg, arch, tr, nil); err != nil {
					t.Fatalf("%s: %v", arch, err)
				}
			})
			return n, res.EventsFired
		}
		mFull, eFull := run(full)
		mHalf, eHalf := run(half)
		if eFull <= eHalf {
			t.Fatalf("%s: full trace fired %d events, half %d", arch, eFull, eHalf)
		}
		perK := 1000 * (float64(mFull) - float64(mHalf)) / float64(eFull-eHalf)
		t.Logf("%-10s %.1f mallocs per 1k extra events (%d over %d events)", arch, perK, int64(mFull-mHalf), eFull-eHalf)
		if perK > maxMallocsPerKEvent {
			t.Errorf("%s: %.1f mallocs per 1k extra events, want <= %d", arch, perK, maxMallocsPerKEvent)
		}
	}
}
