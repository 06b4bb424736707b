package sim

// Kill-and-resume byte-identity matrix: a run interrupted at any
// checkpoint and resumed must produce the exact Result bytes,
// telemetry series, event trace, and invariant verdicts of an
// uninterrupted run — across architectures, serial and sharded plans,
// and with fault injection on and off.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"redcache/internal/ckpt"
	"redcache/internal/config"
	"redcache/internal/dram"
	"redcache/internal/hbm"
	"redcache/internal/obs"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// ckptOpts builds the standard full-coverage option set: telemetry
// (series + event trace), invariants, and optionally faults — every
// observer whose state the checkpoint must carry.
func ckptOpts(workers int, faults bool) *Options {
	opts := &Options{
		ShardWorkers:    workers,
		InvariantCycles: 4096,
		Telemetry:       &obs.Options{EpochCycles: 4096, TraceEvents: true},
	}
	if faults {
		f := config.DefaultFaults()
		f.Seed = 7
		opts.Faults = &f
	}
	return opts
}

// ckptTrace builds the matrix workload trace.
func ckptTrace(t *testing.T, cfg *config.System, workload string) *trace.Trace {
	t.Helper()
	spec, err := workloads.ByLabel(workload)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Gen(cfg.CPU.Cores, workloads.Tiny, 1)
}

// fullString renders everything the identity contract covers.
func fullString(t *testing.T, r *Result) string {
	t.Helper()
	s := shardResultString(r)
	if r.Telemetry != nil {
		var buf bytes.Buffer
		if err := obs.WriteSeriesJSONL(&buf, r.Telemetry.Series()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteSeriesCSV(&buf, r.Telemetry.Series()); err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteEventsJSONL(&buf, r.Telemetry.Tracer); err != nil {
			t.Fatal(err)
		}
		s += buf.String()
	}
	return s
}

// snapshotAt builds a machine, runs it to (at least) the given cycle,
// and snapshots it to path — the controlled stand-in for "SIGKILL
// right after a periodic snapshot".
func snapshotAt(t *testing.T, cfg *config.System, arch hbm.Arch, tr *trace.Trace,
	opts *Options, pause int64, path string) {
	t.Helper()
	o := *opts
	o.CkptPath = path
	m, err := buildMachine(cfg, arch, tr, &o)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	var drained bool
	if m.shd != nil {
		drained = m.shd.RunWindows(pause)
	} else {
		drained = m.eng.RunWithin(pause)
	}
	if drained {
		t.Fatalf("run drained before pause cycle %d; pick an earlier pause", pause)
	}
	if err := m.checkpoint(""); err != nil {
		t.Fatalf("snapshot at cycle %d: %v", pause, err)
	}
}

// TestCheckpointResumeIdentity is the kill-and-resume matrix.
func TestCheckpointResumeIdentity(t *testing.T) {
	autoWorkers := 4
	cases := []struct {
		name     string
		workload string
		arch     hbm.Arch
		workers  int
		faults   bool
	}{
		{"LU_RedCache_serial", "LU", hbm.ArchRedCache, 0, false},
		{"LU_RedCache_serial_faults", "LU", hbm.ArchRedCache, 0, true},
		{"LU_RedCache_shard1", "LU", hbm.ArchRedCache, 1, false},
		{"LU_RedCache_shard4_faults", "LU", hbm.ArchRedCache, autoWorkers, true},
		{"HIST_NoHBM_serial", "HIST", hbm.ArchNoHBM, 0, false},
		{"HIST_NoHBM_shard4", "HIST", hbm.ArchNoHBM, autoWorkers, false},
		{"LU_Alloy_serial", "LU", hbm.ArchAlloy, 0, false},
		{"LU_Bear_shard4", "LU", hbm.ArchBear, autoWorkers, false},
		{"LU_Ideal_serial", "LU", hbm.ArchIdeal, 0, false},
		{"LU_RedInSitu_shard1_faults", "LU", hbm.ArchRedInSitu, 1, true},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Tiny()
			tr := ckptTrace(t, cfg, c.workload)
			opts := ckptOpts(c.workers, c.faults)

			base, err := Run(cfg, c.arch, tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := fullString(t, base)

			for _, frac := range []int64{4, 2} {
				pause := base.Cycles / frac
				path := filepath.Join(t.TempDir(), "run.ckpt")
				snapshotAt(t, cfg, c.arch, tr, opts, pause, path)
				res, err := Resume(cfg, c.arch, tr, opts, path)
				if err != nil {
					t.Fatalf("resume from cycle ~%d: %v", pause, err)
				}
				if got := fullString(t, res); got != want {
					t.Fatalf("resume from cycle ~%d diverged from uninterrupted run\n--- want\n%s\n--- got\n%s",
						pause, want, got)
				}
			}
		})
	}
}

// TestCheckpointCadenceDoesNotPerturb pins the no-perturbation
// contract: a run that snapshots every period produces exactly the
// bytes of a run that never snapshots.
func TestCheckpointCadenceDoesNotPerturb(t *testing.T) {
	for _, workers := range []int{0, 2} {
		workers := workers
		t.Run(map[int]string{0: "serial", 2: "sharded"}[workers], func(t *testing.T) {
			t.Parallel()
			cfg := config.Tiny()
			tr := ckptTrace(t, cfg, "LU")
			opts := ckptOpts(workers, true)
			plain, err := Run(cfg, hbm.ArchRedCache, tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			withCkpt := *opts
			withCkpt.CkptPath = filepath.Join(t.TempDir(), "run.ckpt")
			withCkpt.CkptPeriod = plain.Cycles / 5
			ck, err := Run(cfg, hbm.ArchRedCache, tr, &withCkpt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fullString(t, ck), fullString(t, plain); got != want {
				t.Fatalf("checkpoint cadence perturbed the run\n--- plain\n%s\n--- checkpointed\n%s", want, got)
			}
			if _, err := os.Stat(withCkpt.CkptPath); err != nil {
				t.Fatalf("cadence run left no checkpoint: %v", err)
			}
			// The last periodic snapshot must itself resume to the same bytes.
			res, err := Resume(cfg, hbm.ArchRedCache, tr, opts, withCkpt.CkptPath)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fullString(t, res), fullString(t, plain); got != want {
				t.Fatal("resume from last cadence snapshot diverged")
			}
		})
	}
}

// TestResumeRejectsBadCheckpoints: damaged or mismatched checkpoints
// must fail with the structured error classes, never resume wrong.
func TestResumeRejectsBadCheckpoints(t *testing.T) {
	cfg := config.Tiny()
	tr := ckptTrace(t, cfg, "LU")
	opts := ckptOpts(0, false)
	base, err := Run(cfg, hbm.ArchRedCache, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	snapshotAt(t, cfg, hbm.ArchRedCache, tr, opts, base.Cycles/2, path)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, wantErr error) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Resume(cfg, hbm.ArchRedCache, tr, opts, p)
		if !errors.Is(err, wantErr) {
			t.Errorf("%s: got %v, want %v", name, err, wantErr)
		}
	}

	truncated := good[:len(good)/2]
	check("truncated.ckpt", truncated, ckpt.ErrTruncated)

	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	check("flipped.ckpt", flipped, ckpt.ErrCorrupt)

	skewed := bytes.Clone(good)
	skewed[4] = 99 // format field
	// Re-checksum so the version check (not the integrity check) trips.
	check("version.ckpt", resum(skewed), ckpt.ErrVersion)

	// Wrong configuration: same file, different seed.
	cfg2 := config.Tiny()
	cfg2.Seed = 999
	if _, err := Resume(cfg2, hbm.ArchRedCache, tr, opts, path); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("seed mismatch: got %v, want ErrMismatch", err)
	}
	// Wrong architecture.
	if _, err := Resume(cfg, hbm.ArchAlloy, tr, opts, path); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("arch mismatch: got %v, want ErrMismatch", err)
	}
	// Wrong shard plan.
	if _, err := Resume(cfg, hbm.ArchRedCache, tr, ckptOpts(2, false), path); !errors.Is(err, ckpt.ErrMismatch) {
		t.Errorf("shard plan mismatch: got %v, want ErrMismatch", err)
	}
}

// TestWatchdogWritesDiagnosticSnapshot: a tripped watchdog leaves a
// non-resumable .final snapshot next to the checkpoint path.
func TestWatchdogWritesDiagnosticSnapshot(t *testing.T) {
	cfg := config.Tiny()
	tr := ckptTrace(t, cfg, "LU")
	opts := ckptOpts(0, false)
	opts.CkptPath = filepath.Join(t.TempDir(), "run.ckpt")
	opts.MaxCycles = 5000 // far too small for tiny LU
	_, err := Run(cfg, hbm.ArchRedCache, tr, opts)
	var serr *Error
	if !errors.As(err, &serr) || serr.Op != "watchdog" {
		t.Fatalf("want watchdog *Error, got %v", err)
	}
	final := opts.CkptPath + ".final"
	man, _, err := ckpt.LoadFile(final)
	if err != nil {
		t.Fatalf("diagnostic snapshot unreadable: %v", err)
	}
	if man.Final != "watchdog" {
		t.Fatalf("diagnostic manifest Final = %q, want watchdog", man.Final)
	}
	if _, err := Resume(cfg, hbm.ArchRedCache, tr, opts, final); !errors.Is(err, ckpt.ErrMismatch) {
		t.Fatalf("resuming a diagnostic snapshot: got %v, want ErrMismatch", err)
	}
}

// resum recomputes the trailing sha256 after a deliberate header edit,
// so the edited field (not the integrity check) is what trips.
func resum(data []byte) []byte {
	body := data[:len(data)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(bytes.Clone(body), sum[:]...)
}

// TestCheckpointRebuildsRowIndex restores mid-run checkpoints taken
// while the HBM write queues are deep (HIST on Alloy: nearly every
// miss is a fill write) and checks that the FR-FCFS row index, which
// the checkpoint does not carry, is rebuilt consistent with the
// restored queues and open rows, and that the resumed run finishes
// byte-identical to the uninterrupted one.
func TestCheckpointRebuildsRowIndex(t *testing.T) {
	cfg := config.Default()
	spec, err := workloads.ByLabel("HIST")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Gen(cfg.CPU.Cores, workloads.Small, 1)
	opts := &Options{}
	base, err := Run(cfg, hbm.ArchAlloy, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fullString(t, base)
	deepest := 0
	for _, frac := range []int64{5, 3, 2} {
		pause := base.Cycles / frac
		path := filepath.Join(t.TempDir(), "run.ckpt")
		snapshotAt(t, cfg, hbm.ArchAlloy, tr, opts, pause, path)
		_, payload, err := ckpt.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := buildMachine(cfg, hbm.ArchAlloy, tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.loadState(ckpt.NewReader(payload)); err != nil {
			t.Fatalf("restore from cycle ~%d: %v", pause, err)
		}
		deepest = max(deepest, m.hbmCtl.TotalQueued())
		for _, ctl := range []*dram.Controller{m.hbmCtl, m.ddrCtl} {
			if err := ctl.CheckInvariants(); err != nil {
				t.Fatalf("restored at cycle ~%d: %v", pause, err)
			}
		}
		res, err := m.complete()
		m.close()
		if err != nil {
			t.Fatal(err)
		}
		if got := fullString(t, res); got != want {
			t.Fatalf("resumed from cycle ~%d diverges from the uninterrupted run", pause)
		}
	}
	if deepest < 2000 {
		t.Fatalf("deepest restored HBM queue holds %d transactions, want a deep queue (>= 2000)", deepest)
	}
}
