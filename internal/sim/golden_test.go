package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

// goldenPairs are the (workload, arch) pairs pinned byte-for-byte
// against the seed implementation.  One bandwidth-bound kernel on the
// full RedCache controller and one streaming kernel on the no-cache
// baseline cover both extremes of the event-scheduling load.  A zero
// granularity keeps config.Default's 64 B transfers.
var goldenPairs = []struct {
	workload    string
	arch        hbm.Arch
	scale       workloads.Scale
	granularity int
	name        string
}{
	{"LU", hbm.ArchRedCache, workloads.Tiny, 0, "LU_RedCache"},
	{"HIST", hbm.ArchNoHBM, workloads.Tiny, 0, "HIST_NoHBM"},
	// The small-scale pair is the load-bearing one: at tiny scale alpha
	// bypasses everything, while at small scale the run drives ~220k RCU
	// updates, piggyback/idle flushes, refresh bypass, and both DRAM
	// devices.
	{"LU", hbm.ArchRedCache, workloads.Small, 0, "LU_RedCache_small"},
	// OCN at small scale pins every other tag-and-data architecture:
	// Alloy's hit r-counts and zero-reuse evictions, Bear's fill bypass
	// and presence-filter writes, and each RedCache variant's mechanism
	// set on its own.  At 256 B transfers a write miss must fetch its
	// frame's remainder from DDR4 before the install.
	{"OCN", hbm.ArchAlloy, workloads.Small, 0, "OCN_Alloy_small"},
	{"OCN", hbm.ArchBear, workloads.Small, 0, "OCN_Bear_small"},
	{"OCN", hbm.ArchRedAlpha, workloads.Small, 0, "OCN_Red-Alpha_small"},
	{"OCN", hbm.ArchRedGamma, workloads.Small, 0, "OCN_Red-Gamma_small"},
	{"OCN", hbm.ArchRedBasic, workloads.Small, 0, "OCN_Red-Basic_small"},
	{"OCN", hbm.ArchRedInSitu, workloads.Small, 0, "OCN_Red-InSitu_small"},
	{"OCN", hbm.ArchAlloy, workloads.Small, 256, "OCN_Alloy_small_g256"},
}

// goldenString renders every counter the seed-era Result carried.  The
// fields are enumerated explicitly (rather than %+v on the whole
// struct) so that *adding* diagnostics to Result later cannot silently
// relax the byte-identity contract on the seed counters.
func goldenString(r *Result) string {
	return fmt.Sprintf(
		"Arch:%s Workload:%s\nCycles:%d Instructions:%d\nHBMIface:%+v\nDDRIface:%+v\nCtl:%+v\nL3:%+v\nEnergy:%+v\n",
		r.Arch, r.Workload, r.Cycles, r.Instructions,
		r.HBMIface, r.DDRIface, r.Ctl, r.L3, r.Energy)
}

func goldenRun(t *testing.T, workload string, arch hbm.Arch, sc workloads.Scale, granularity int) *Result {
	t.Helper()
	sys := config.Default()
	sys.CPU.Cores = 4
	if granularity != 0 {
		sys.Granularity = granularity
	}
	spec, err := workloads.ByLabel(workload)
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Gen(sys.CPU.Cores, sc, 1)
	res, err := Run(sys, arch, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenResultMatchesSeed asserts that the full Result of each
// golden pair is byte-identical to the dump captured from the seed
// implementation (pre performance-overhaul).  Any engine, DRAM, cache,
// or controller change that perturbs a single counter fails here.
//
// Regenerate (only when a behaviour change is *intended* and reviewed):
//
//	REDCACHE_UPDATE_GOLDEN=1 go test ./internal/sim -run Golden
func TestGoldenResultMatchesSeed(t *testing.T) {
	for _, p := range goldenPairs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			got := goldenString(goldenRun(t, p.workload, p.arch, p.scale, p.granularity))
			path := filepath.Join("testdata",
				fmt.Sprintf("golden_%s.txt", p.name))
			if os.Getenv("REDCACHE_UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("updated %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with REDCACHE_UPDATE_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("Result diverged from seed implementation.\n--- want (seed)\n%s\n--- got\n%s", want, got)
			}
		})
	}
}
