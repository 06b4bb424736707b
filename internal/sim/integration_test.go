package sim

import (
	"testing"

	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// TestDeterminism: two identical runs must produce bit-identical
// headline results (the whole stack is seeded and event-ordered).
func TestDeterminism(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.LU(cfg.CPU.Cores, workloads.Tiny, 3)
	for _, arch := range []hbm.Arch{hbm.ArchAlloy, hbm.ArchBear, hbm.ArchRedCache} {
		a, err := Run(cfg, arch, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, arch, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles ||
			a.HBMIface.TotalBytes() != b.HBMIface.TotalBytes() ||
			a.DDRIface.TotalBytes() != b.DDRIface.TotalBytes() {
			t.Errorf("%s: nondeterministic results: %d vs %d cycles", arch, a.Cycles, b.Cycles)
		}
	}
}

// TestRequestConservation: the controller must see exactly the L3
// misses plus the L3 dirty writebacks, for every architecture.
func TestRequestConservation(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.IS(cfg.CPU.Cores, workloads.Tiny, 5)
	for _, arch := range hbm.All() {
		res, err := Run(cfg, arch, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantReads := res.L3.Misses
		wantWrites := res.L3.DirtyEvicts
		if res.Ctl.Reads != wantReads {
			t.Errorf("%s: controller reads %d != L3 misses %d", arch, res.Ctl.Reads, wantReads)
		}
		if res.Ctl.Writes != wantWrites {
			t.Errorf("%s: controller writes %d != L3 dirty evictions %d",
				arch, res.Ctl.Writes, wantWrites)
		}
	}
}

// TestHitMissAccounting: demand hits + misses + direct-to-memory must
// cover every request that reached the controller, with the online
// invariant checker sweeping every architecture along the way.
func TestHitMissAccounting(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.MG(cfg.CPU.Cores, workloads.Tiny, 1)
	for _, arch := range hbm.All() {
		res, err := Run(cfg, arch, tr, &Options{InvariantCycles: 50000})
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		total := res.Ctl.Reads + res.Ctl.Writes
		covered := res.Ctl.Demand.Accesses() + res.Ctl.DirectToMem
		if covered != total {
			t.Errorf("%s: hits+misses+direct = %d, requests = %d", arch, covered, total)
		}
		if res.InvariantChecks == 0 {
			t.Errorf("%s: invariant checker never ran", arch)
		}
	}
}

// TestWorseThanIdealBetterThanNothing: for every architecture, execution
// time must be bounded below by IDEAL and the system must still finish.
func TestOrderingSanity(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.OCN(cfg.CPU.Cores, workloads.Tiny, 1)
	ideal, err := Run(cfg, hbm.ArchIdeal, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range hbm.All() {
		if arch == hbm.ArchIdeal {
			continue
		}
		res, err := Run(cfg, arch, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles < ideal.Cycles*9/10 {
			t.Errorf("%s (%d cycles) substantially beats IDEAL (%d cycles)",
				arch, res.Cycles, ideal.Cycles)
		}
	}
}

// TestGranularitySweepRuns: all three Fig 2(b) granularities complete
// and coarser granularities move at least as much DDR data.
func TestGranularitySweepRuns(t *testing.T) {
	tr := workloads.FT(2, workloads.Tiny, 1)
	var prev int64
	for _, g := range []int{64, 128, 256} {
		cfg := config.Tiny()
		cfg.Granularity = g
		res, err := Run(cfg, hbm.ArchAlloy, tr, nil)
		if err != nil {
			t.Fatalf("granularity %d: %v", g, err)
		}
		if res.DDRIface.TotalBytes() < prev {
			t.Errorf("granularity %d moved less DDR data (%d) than finer (%d)",
				g, res.DDRIface.TotalBytes(), prev)
		}
		prev = res.DDRIface.TotalBytes()
	}
}

// TestEmptyTraceErrors: a trace without streams is rejected.
func TestEmptyTraceErrors(t *testing.T) {
	cfg := config.Tiny()
	if _, err := Run(cfg, hbm.ArchAlloy, &trace.Trace{Name: "empty"}, nil); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

// TestInvalidConfigErrors: Run validates the configuration.
func TestInvalidConfigErrors(t *testing.T) {
	cfg := config.Tiny()
	cfg.Granularity = 7
	tr := workloads.LREG(2, workloads.Tiny, 1)
	if _, err := Run(cfg, hbm.ArchAlloy, tr, nil); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestAllWorkloadsAllArchsTiny is the broad integration sweep: every
// Table II workload completes on every architecture at tiny scale.
func TestAllWorkloadsAllArchsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("broad sweep")
	}
	cfg := config.Tiny()
	for _, spec := range workloads.Catalog() {
		tr := spec.Gen(cfg.CPU.Cores, workloads.Tiny, 1)
		for _, arch := range hbm.All() {
			res, err := Run(cfg, arch, tr, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Label, arch, err)
			}
			if res.Cycles <= 0 {
				t.Errorf("%s/%s: no progress", spec.Label, arch)
			}
		}
	}
}
