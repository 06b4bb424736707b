package hbm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"redcache/internal/config"
	"redcache/internal/mem"
)

// TestControllersDoNotRetainRequests pins the mem.Request ownership
// contract: a controller holds no pointer to a Request once Submit
// returns.  The same mixed stream drives two rigs per architecture; one
// submits a fresh Request each time, the other reuses a single Request
// and scribbles over it (garbage address, type and core, and a Done
// that fails the test) as soon as Submit returns.  Any retained pointer
// would read the garbage, so the two rigs must agree on every counter
// and every completion cycle.  Granularity 256 covers the coarse
// write-install and read-fill paths, 64 covers Ideal's tag-check write.
func TestControllersDoNotRetainRequests(t *testing.T) {
	for _, g := range []int{64, 256} {
		for _, arch := range All() {
			t.Run(fmt.Sprintf("%s/G%d", arch, g), func(t *testing.T) {
				mutate := func(cfg *config.System) { cfg.Granularity = g }
				fresh, reused := newRig(t, arch, mutate), newRig(t, arch, mutate)
				freshDone := driveRetentionStream(t, fresh, false)
				reusedDone := driveRetentionStream(t, reused, true)
				if !reflect.DeepEqual(*fresh.ctl.Stats(), *reused.ctl.Stats()) {
					t.Errorf("controller stats differ:\nfresh  %+v\nreused %+v",
						*fresh.ctl.Stats(), *reused.ctl.Stats())
				}
				if fresh.hbmIface != reused.hbmIface || fresh.ddrIface != reused.ddrIface {
					t.Errorf("interface counters differ:\nfresh  %+v %+v\nreused %+v %+v",
						fresh.hbmIface, fresh.ddrIface, reused.hbmIface, reused.ddrIface)
				}
				for i, f := range freshDone {
					if f < 0 {
						t.Fatalf("request %d never completed", i)
					}
				}
				if !reflect.DeepEqual(freshDone, reusedDone) {
					t.Error("completion cycles differ between fresh and reused requests")
				}
			})
		}
	}
}

// driveRetentionStream submits a fixed mixed read/write stream, one
// request every other cycle so misses overlap, and returns each
// request's completion cycle (-1 if it never completed).  Two hot
// regions one HBM-cache capacity apart conflict frame for frame, so the
// stream exercises hits, fills, evictions and write-allocates; each
// region's pages are hot enough to pass α admission.
func driveRetentionStream(t *testing.T, r *rig, reuse bool) []int64 {
	const n = 6000
	rng := rand.New(rand.NewSource(11))
	done := make([]int64, n)
	var shared mem.Request
	for i := range done {
		done[i] = -1
		page := rng.Intn(16)
		if rng.Intn(2) == 0 {
			page += int(r.cfg.HBMCacheB / mem.PageSize)
		}
		addr := mem.Addr(page*mem.PageSize + rng.Intn(mem.BlocksPerPage)*mem.BlockSize)
		typ := mem.Read
		if rng.Intn(10) < 3 {
			typ = mem.Write
		}
		complete := func(f int64) { done[i] = f }
		r.eng.Schedule(int64(2*i), func() {
			req := &mem.Request{Addr: addr, Type: typ, Core: 0, Issued: r.eng.Now(), Done: complete}
			if !reuse {
				r.ctl.Submit(req)
				return
			}
			shared = *req
			r.ctl.Submit(&shared)
			shared = mem.Request{Addr: 0xdead_beef, Type: mem.AccessType(7), Core: -99,
				Issued: -1, Done: func(int64) { t.Errorf("request %d: Done read after Submit returned", i) }}
		})
	}
	r.eng.Run()
	return done
}
