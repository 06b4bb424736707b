// Command redsim runs one (workload, architecture) pair on the scaled
// evaluation configuration and prints a full statistics report.
//
// Usage:
//
//	redsim -workload LU -arch RedCache [-scale default] [-seed 1]
//	       [-faults default -faultseed 1] [-invariants [-invperiod 10000]]
//	       [-maxcycles N]
//	       [-ckpt run.ckpt [-ckptperiod N] [-resume]]
//	       [-telemetry out/ -epoch 100000 [-events]]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace run.trace]
//
// -faults enables deterministic fault injection: "default" (or "on")
// uses the paper-motivated default rates, "off" disables, and a
// comma-separated k=v list (tag, tagescape, rcount, data, row, bus)
// sets individual per-access probabilities.  -faultseed seeds the fault
// PRNG independently of the workload seed; a fixed (seed, faultseed)
// pair reproduces a bit-identical run.
//
// -invariants turns on the online invariant checker (engine heap order,
// FR-FCFS queue state, tag-store/RCU consistency, counter sanity) every
// -invperiod cycles; -maxcycles arms the cycle-budget watchdog.  Both
// convert a corrupted or stuck simulation into a structured non-zero
// exit instead of a hang.
//
// -ckpt names a checkpoint file.  With -ckptperiod N the run writes a
// resumable snapshot of the complete machine state there every N
// cycles; snapshots are taken at observationally free pause points, so
// the checkpointed run's report is byte-identical to an uninterrupted
// one.  -resume restores the run from that file instead of starting
// fresh; the checkpoint's manifest (config hash, workload, arch,
// seeds, fault spec, telemetry cadence) must match the
// flags given, and a damaged or mismatched checkpoint is rejected with
// exit status 2 — never silently re-run.  A tripped watchdog or
// invariant abort additionally writes a non-resumable diagnostic
// snapshot to <ckpt>.final.
//
// -telemetry enables cycle-domain telemetry (internal/obs): probes are
// sampled every -epoch cycles and written to <dir>/series.jsonl and
// <dir>/series.csv; -events additionally records the structured event
// trace to <dir>/events.jsonl.  Output is byte-identical across runs.
//
// The profiling flags wrap the simulation (not trace generation) and
// emit standard pprof / runtime-trace files for `go tool pprof` and
// `go tool trace`.
//
// Exit status: 0 on success, 1 on a runtime failure (including watchdog
// and invariant aborts), 2 on a usage error or a rejected checkpoint
// (truncated, corrupt, version-skewed, or mismatched with the flags).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rttrace "runtime/trace"
	"time"

	"redcache/internal/ckpt"
	"redcache/internal/config"
	"redcache/internal/hbm"
	"redcache/internal/obs"
	"redcache/internal/sim"
	"redcache/internal/stats"
	"redcache/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command: it parses args, simulates,
// and writes the report to stdout.  Usage errors return 2, runtime
// failures return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("redsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "LU", "workload label (see redtrace -list)")
		arch      = fs.String("arch", "RedCache", "architecture: NoHBM, Ideal, Alloy, Bear, Red-Alpha, Red-Gamma, Red-Basic, Red-InSitu, RedCache")
		scale     = fs.String("scale", "default", "problem size: tiny, small or default")
		seed      = fs.Int64("seed", 1, "workload PRNG seed")
		cores     = fs.Int("cores", 0, "override core count (0 = config default)")
		faults    = fs.String("faults", "off", "fault injection spec: off, default, or k=v list (tag, tagescape, rcount, data, row, bus)")
		faultSeed = fs.Int64("faultseed", 1, "fault-injection PRNG seed (independent of -seed)")
		invar     = fs.Bool("invariants", false, "run the online invariant checker every -invperiod cycles")
		invPeriod = fs.Int64("invperiod", 10000, "invariant check period in CPU cycles (with -invariants)")
		maxCycles = fs.Int64("maxcycles", 0, "abort via the cycle-budget watchdog past this many cycles (0 = no limit)")
		ckptPath  = fs.String("ckpt", "", "checkpoint file (with -ckptperiod and/or -resume)")
		ckptEvery = fs.Int64("ckptperiod", 0, "write a resumable snapshot to -ckpt every N cycles (0 = off)")
		resume    = fs.Bool("resume", false, "restore the run from the checkpoint at -ckpt instead of starting fresh")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf   = fs.String("memprofile", "", "write a post-run heap profile to this file")
		execTr    = fs.String("trace", "", "write a runtime execution trace of the simulation to this file")
		telDir    = fs.String("telemetry", "", "write epoch telemetry (series.jsonl, series.csv) to this directory")
		epoch     = fs.Int64("epoch", 100000, "telemetry sampling period in CPU cycles")
		events    = fs.Bool("events", false, "with -telemetry, also write the structured event trace (events.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already reported to stderr
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "redsim:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "redsim:", err)
		return 1
	}

	cfg := config.Default()
	if *cores > 0 {
		cfg.CPU.Cores = *cores
	}
	spec, err := workloads.ByLabel(*workload)
	if err != nil {
		return usage(err)
	}
	sc, err := parseScale(*scale)
	if err != nil {
		return usage(err)
	}
	fc, err := config.ParseFaults(*faults)
	if err != nil {
		return usage(err)
	}
	fc.Seed = *faultSeed
	if *invPeriod <= 0 {
		return usage(fmt.Errorf("-invperiod must be positive, got %d", *invPeriod))
	}
	if *maxCycles < 0 {
		return usage(fmt.Errorf("-maxcycles must be non-negative, got %d", *maxCycles))
	}
	if *events && *telDir == "" {
		return usage(fmt.Errorf("-events requires -telemetry"))
	}
	if *ckptEvery < 0 {
		return usage(fmt.Errorf("-ckptperiod must be non-negative, got %d", *ckptEvery))
	}
	if *ckptEvery > 0 && *ckptPath == "" {
		return usage(fmt.Errorf("-ckptperiod requires -ckpt"))
	}
	if *resume && *ckptPath == "" {
		return usage(fmt.Errorf("-resume requires -ckpt"))
	}

	tr := spec.Gen(cfg.CPU.Cores, sc, *seed)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *execTr != "" {
		f, err := os.Create(*execTr)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := rttrace.Start(f); err != nil {
			return fail(err)
		}
		defer rttrace.Stop()
	}

	opts := &sim.Options{
		Faults:     &fc,
		MaxCycles:  *maxCycles,
		CkptPath:   *ckptPath,
		CkptPeriod: *ckptEvery,
	}
	if *invar {
		opts.InvariantCycles = *invPeriod
	}
	if *telDir != "" {
		opts.Telemetry = &obs.Options{EpochCycles: *epoch, TraceEvents: *events}
	}

	start := time.Now() //redvet:wallclock — host-side progress timing, never feeds simulated state
	var res *sim.Result
	if *resume {
		res, err = sim.Resume(cfg, hbm.Arch(*arch), tr, opts, *ckptPath)
	} else {
		res, err = sim.Run(cfg, hbm.Arch(*arch), tr, opts)
	}
	if err != nil {
		if ckptReject(err) {
			fmt.Fprintln(stderr, "redsim:", err)
			return 2
		}
		return fail(err)
	}
	wall := time.Since(start) //redvet:wallclock — host-side progress timing, never feeds simulated state

	if *telDir != "" {
		if err := writeTelemetry(stdout, *telDir, res.Telemetry, *events); err != nil {
			return fail(err)
		}
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}

	report(stdout, cfg, spec, sc, tr.Records(), res, wall)
	return 0
}

// report renders the statistics block for one completed run.
func report(w io.Writer, cfg *config.System, spec workloads.Spec, sc workloads.Scale,
	records int, res *sim.Result, wall time.Duration) {
	fmt.Fprintf(w, "== %s on %s (%s scale, %d cores, %d records) ==\n",
		spec.Label, res.Arch, sc, cfg.CPU.Cores, records)
	fmt.Fprintf(w, "execution time:  %d cycles (%.3f ms simulated, %.2fs wall)\n",
		res.Cycles, 1e3*res.Seconds(cfg), wall.Seconds())
	fmt.Fprintf(w, "IPC:             %.2f\n", res.IPC())
	fmt.Fprintf(w, "L3:              %.1f%% hit (%d accesses)\n",
		100*res.L3.HitRate(), res.L3.Accesses())
	fmt.Fprintf(w, "controller:      %d reads, %d writes\n", res.Ctl.Reads, res.Ctl.Writes)
	fmt.Fprintf(w, "HBM demand:      %.1f%% hit (%d accesses)\n",
		100*res.Ctl.Demand.HitRate(), res.Ctl.Demand.Accesses())
	fmt.Fprintf(w, "fills=%d fillBypass=%d victimWB=%d directToMem=%d refreshByp=%d\n",
		res.Ctl.Fills, res.Ctl.FillBypass, res.Ctl.VictimWB,
		res.Ctl.DirectToMem, res.Ctl.RefreshByp)
	if res.Ctl.Alpha.Bypassed+res.Ctl.Alpha.Admissions > 0 {
		a := res.Ctl.Alpha
		fmt.Fprintf(w, "alpha:           bypassed=%d admissions=%d bufHit=%.1f%% final α=%d\n",
			a.Bypassed, a.Admissions,
			100*float64(a.BufferHits)/float64(a.BufferHits+a.BufferMiss), a.FinalAlpha)
	}
	if g := res.Ctl.Gamma; g.RCountUpdates+g.Invalidations > 0 {
		fmt.Fprintf(w, "gamma:           invalidations=%d rcountUpdates=%d final γ=%d\n",
			g.Invalidations, g.RCountUpdates, g.FinalGamma)
	}
	if r := res.Ctl.RCU; r.Enqueued > 0 {
		fmt.Fprintf(w, "RCU:             enq=%d piggyback=%d idle=%d dropped=%d merged=%d blockHits=%d free=%s\n",
			r.Enqueued, r.Piggyback, r.IdleFlush, r.Dropped, r.Merged, r.BlockHits,
			stats.Fmt(r.FreeShare()))
	}
	if f := res.FaultStats; f != nil {
		fmt.Fprintf(w, "faults:          detected=%d silent=%d\n", f.Detected(), f.Silent())
		fmt.Fprintf(w, "  tag det=%d sil=%d (dirty dropped %d)  rcount=%d  data=%d  row=%d  bus=%d\n",
			f.TagDetected, f.TagSilent, f.DirtyDropped,
			f.RCountFaults, f.SilentData, f.RowFaults, f.BusFaults)
	}
	if res.InvariantChecks > 0 {
		fmt.Fprintf(w, "invariants:      %d sweeps clean\n", res.InvariantChecks)
	}
	printIface(w, &res.HBMIface, res.Cycles)
	printIface(w, &res.DDRIface, res.Cycles)
	fmt.Fprintf(w, "last-access-is-write share: %s (paper §II-C reports >82%%)\n",
		stats.Fmt(res.Ctl.LastWriteShare()))
	fmt.Fprintf(w, "energy: HBM cache %.4f J, system %.4f J\n",
		res.Energy.HBMCache(), res.Energy.System())
}

// ckptReject reports whether err is a structured checkpoint reject —
// the classes a supervisor must treat as "do not retry this file"
// rather than a transient runtime failure.
func ckptReject(err error) bool {
	return errors.Is(err, ckpt.ErrTruncated) || errors.Is(err, ckpt.ErrCorrupt) ||
		errors.Is(err, ckpt.ErrVersion) || errors.Is(err, ckpt.ErrMismatch)
}

func parseScale(s string) (workloads.Scale, error) {
	switch s {
	case "tiny":
		return workloads.Tiny, nil
	case "small":
		return workloads.Small, nil
	case "default":
		return workloads.Default, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small or default)", s)
}

func printIface(w io.Writer, i *stats.Interface, cycles int64) {
	if i.Requests == 0 {
		return
	}
	fmt.Fprintf(w, "%-8s %8.1f MB moved, %4.1f%% bus busy, row hit %4.1f%%, %d activates, %d refreshes\n",
		i.Name, float64(i.TotalBytes())/(1<<20), 100*i.BandwidthUtil(cycles),
		100*i.RowHitRate(), i.Activates, i.Refreshes)
}
