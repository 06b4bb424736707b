package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

// matrixArchs rotates the architecture across workloads so the matrix
// covers the direct-to-memory path (NoHBM), the tag-in-HBM caches
// (Alloy, Bear, Red-InSitu) and RedCache with its RCU hooks.
var matrixArchs = []hbm.Arch{
	hbm.ArchNoHBM, hbm.ArchAlloy, hbm.ArchBear, hbm.ArchRedInSitu, hbm.ArchRedCache,
}

// TestShardedByteIdentityMatrix is the run-level determinism contract
// the experiments worker pool relies on: for every workload, with
// faults off and on, N concurrent runs over one shared trace (as the
// pool shares a workload's trace across architectures) each produce
// the Result bytes, telemetry series, event trace and invariant
// verdicts of a lone run — for N in {2, 4, GOMAXPROCS}.  How many runs
// share the process decides only which OS thread executes a run, never
// its schedule, so any difference is shared mutable state between
// machines or a run writing to its input trace.  (The name dates from
// when the matrix compared worker counts of one sharded run.)
func TestShardedByteIdentityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is long; run without -short")
	}
	auto := runtime.GOMAXPROCS(0)
	for i, spec := range workloads.Catalog() {
		arch := matrixArchs[i%len(matrixArchs)]
		for _, faults := range []bool{false, true} {
			name := fmt.Sprintf("%s_%s_faults=%v", spec.Label, arch, faults)
			t.Run(name, func(t *testing.T) {
				cfg := config.Tiny()
				tr := spec.Gen(cfg.CPU.Cores, workloads.Tiny, 1)
				run := func() (*Result, error) {
					c := *cfg
					return Run(&c, arch, tr, ckptOpts(faults))
				}
				ref, err := run()
				if err != nil {
					t.Fatal(err)
				}
				if ref.InvariantChecks == 0 {
					t.Fatal("reference run completed no invariant sweeps")
				}
				want := fullString(t, ref)
				for _, n := range []int{2, 4, auto} {
					res := make([]*Result, n)
					errs := make([]error, n)
					var wg sync.WaitGroup
					for k := 0; k < n; k++ {
						wg.Add(1)
						go func(k int) {
							defer wg.Done()
							res[k], errs[k] = run()
						}(k)
					}
					wg.Wait()
					for k := 0; k < n; k++ {
						if errs[k] != nil {
							t.Fatalf("concurrent=%d run %d: %v", n, k, errs[k])
						}
						if got := fullString(t, res[k]); got != want {
							t.Fatalf("concurrent=%d run %d diverged from the lone run:\n--- want\n%s\n--- got\n%s",
								n, k, want, got)
						}
					}
				}
			})
		}
	}
}
