package sim

import (
	"errors"
	"strings"
	"testing"

	"redcache/internal/config"
	"redcache/internal/dram"
	"redcache/internal/hbm"
	"redcache/internal/obs"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// TestInvariantCheckerDoesNotPerturb: a clean run with the checker on
// must report the exact counters of a run without it.  HIST on Alloy at
// small scale (nearly every miss is an HBM fill write) runs the
// FR-FCFS row-index invariants against deep HBM queues end to end; the
// case asserts some sweep actually saw one.
func TestInvariantCheckerDoesNotPerturb(t *testing.T) {
	tiny, small := config.Tiny(), config.Default()
	cases := []struct {
		name      string
		cfg       *config.System
		tr        *trace.Trace
		arch      hbm.Arch
		minQueued int // deepest HBM queue some sweep must have checked
	}{
		{"LU_RedCache_tiny", tiny, workloads.LU(tiny.CPU.Cores, workloads.Tiny, 3), hbm.ArchRedCache, 0},
		{"HIST_Alloy_small", small, workloads.HIST(small.CPU.Cores, workloads.Small, 1), hbm.ArchAlloy, 2000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := Run(c.cfg, c.arch, c.tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			m, err := buildMachine(c.cfg, c.arch, c.tr, &Options{InvariantCycles: 10000})
			if err != nil {
				t.Fatal(err)
			}
			deepest := 0
			m.invs.checks = append(m.invs.checks, func() error {
				deepest = max(deepest, m.hbmCtl.TotalQueued())
				return nil
			})
			checked, err := m.complete()
			if err != nil {
				t.Fatal(err)
			}
			if plain.Cycles != checked.Cycles || plain.Ctl != checked.Ctl ||
				plain.HBMIface != checked.HBMIface || plain.DDRIface != checked.DDRIface {
				t.Error("invariant checker perturbed simulation results")
			}
			if checked.InvariantChecks == 0 {
				t.Error("invariant checker reported zero sweeps")
			}
			// The checker's own events inflate EventsFired; everything the
			// paper reports must stay identical.
			if plain.Instructions != checked.Instructions || plain.L3 != checked.L3 {
				t.Error("invariant checker perturbed CPU-side results")
			}
			if deepest < c.minQueued {
				t.Errorf("deepest HBM queue under a sweep held %d transactions, want >= %d", deepest, c.minQueued)
			}
		})
	}
}

// TestTelemetryPlusInvariantsTerminates: two periodic engine callbacks
// in one run (the telemetry sampler and the invariant sweep) must not
// keep each other's ticks alive after the cores retire — the mutual-
// livelock regression behind engine.Periodic's auto-stop rule — and
// must not perturb the reported counters.
func TestTelemetryPlusInvariantsTerminates(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.LU(cfg.CPU.Cores, workloads.Tiny, 3)
	plain, err := Run(cfg, hbm.ArchRedCache, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	both, err := Run(cfg, hbm.ArchRedCache, tr, &Options{
		InvariantCycles: 7000,
		Telemetry:       &obs.Options{EpochCycles: 11000},
		// A generous cycle budget turns a livelock regression into a
		// fast structured failure instead of a test timeout; per the
		// watchdog contract it must not perturb anything below.
		MaxCycles: plain.Cycles * 100,
	})
	if err != nil {
		t.Fatalf("telemetry+invariants run aborted: %v", err)
	}
	if both.Cycles != plain.Cycles || both.Ctl != plain.Ctl ||
		both.HBMIface != plain.HBMIface || both.DDRIface != plain.DDRIface {
		t.Error("telemetry+invariants perturbed simulation results")
	}
	if both.InvariantChecks == 0 {
		t.Error("invariant checker never ran alongside telemetry")
	}
}

// TestWatchdogAbortsStuckRun: an impossibly small cycle budget must
// surface as a structured watchdog *Error, not a hang or a raw panic.
func TestWatchdogAbortsStuckRun(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.LU(cfg.CPU.Cores, workloads.Tiny, 3)
	res, err := Run(cfg, hbm.ArchRedCache, tr, &Options{MaxCycles: 500})
	if res != nil || err == nil {
		t.Fatal("watchdog did not abort a run that cannot finish in 500 cycles")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("watchdog error is %T, want *sim.Error: %v", err, err)
	}
	if se.Op != "watchdog" {
		t.Errorf("Op = %q, want watchdog", se.Op)
	}
	if se.Workload != tr.Name || se.Arch != hbm.ArchRedCache {
		t.Errorf("error lost run identity: %+v", se)
	}
	if se.Fired == 0 {
		t.Error("error carries no engine state")
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Errorf("message %q does not name the guard", err.Error())
	}
}

// TestGenerousWatchdogIsHarmless: a budget beyond the natural run
// length must not alter results even though the watchdog event fires.
func TestGenerousWatchdogIsHarmless(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.HIST(cfg.CPU.Cores, workloads.Tiny, 2)
	plain, err := Run(cfg, hbm.ArchRedCache, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Run(cfg, hbm.ArchRedCache, tr, &Options{MaxCycles: plain.Cycles * 100})
	if err != nil {
		t.Fatalf("generous watchdog aborted a healthy run: %v", err)
	}
	// The budget must be observationally free down to the interface
	// counters: a queued watchdog sentinel would drag the writeback
	// drain to the budget cycle and pick up a spurious refresh.
	if guarded.Cycles != plain.Cycles || guarded.Ctl != plain.Ctl ||
		guarded.HBMIface != plain.HBMIface || guarded.DDRIface != plain.DDRIface {
		t.Error("watchdog budget perturbed a completing run")
	}
}

// TestPanicRecoveryAttachesState: a panic inside the run loop must come
// back as *Error with Op "panic" and the engine position attached.
func TestPanicRecoveryAttachesState(t *testing.T) {
	cfg := config.Tiny()
	tr := workloads.LU(cfg.CPU.Cores, workloads.Tiny, 3)
	_, err := Run(cfg, hbm.ArchNoHBM, tr, &Options{
		DDRObserver: func(t *dram.Txn, rowHit bool, cycles int64) {
			panic("injected test panic")
		},
	})
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("panic surfaced as %T, want *sim.Error: %v", err, err)
	}
	if se.Op != "panic" || !strings.Contains(se.Err.Error(), "injected test panic") {
		t.Errorf("unexpected recovered error: %+v", se)
	}
}
