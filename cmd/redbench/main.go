// Command redbench regenerates the paper's evaluation: Figures 2(a),
// 2(b), 3, 9, 10 and 11 plus the §II-C and §III-C text statistics, and
// prints measured-vs-paper comparisons.
//
// Usage:
//
//	redbench                 # everything at the default scale
//	redbench -fig 9          # one figure
//	redbench -scale small    # faster, smaller problem sizes
//	redbench -csv out/       # also write CSV files
//	redbench -table 1        # print Table I / Table II
//	redbench -fig epochbw    # per-epoch bandwidth time series (telemetry)
//	redbench -fig faultsweep # detected-vs-silent faults across rate decades
//	redbench -faults default # fault-inject every run (see redsim -faults)
//	redbench -ckptdir ck/    # crash-resilient: checkpoint + resume each config
//
// -ckptdir runs every figure simulation under the checkpoint
// supervisor: each (workload, architecture) config snapshots its
// machine state into the directory every -ckptperiod cycles, a config
// whose previous attempt died resumes from its last good snapshot
// instead of re-running from scratch, and failures retry up to
// -retries attempts.  Checkpoints are integrity-checked and pinned to
// the exact configuration (config hash, seeds, fault spec); a damaged
// or mismatched checkpoint aborts the suite rather than silently
// re-running.  Checkpointing is observationally free — figures are
// byte-identical with and without -ckptdir.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"redcache/internal/config"
	"redcache/internal/experiments"
	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 2a, 2b, 3, 9, 10, 11, stats, ablation, epochbw, faultsweep or all")
		scale   = flag.String("scale", "default", "problem size: tiny, small or default")
		csvDir  = flag.String("csv", "", "directory to write CSV outputs into")
		table   = flag.Int("table", 0, "print Table 1 (config) or 2 (workloads) and exit")
		quiet   = flag.Bool("q", false, "suppress per-run progress")
		only    = flag.String("workloads", "", "comma-separated workload subset (default: all 11)")
		workers = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		epoch   = flag.Int64("epoch", 100000, "telemetry epoch length in CPU cycles (-fig epochbw)")
		epochWl = flag.String("epochbw-workload", "LU", "workload for the -fig epochbw time series")

		faults    = flag.String("faults", "off", "fault injection spec for every run: off, default, or k=v list (see redsim -faults)")
		faultSeed = flag.Int64("faultseed", 1, "fault-injection PRNG seed")
		invar     = flag.Int64("invariants", 0, "online invariant check period in cycles for every run (0 = off)")
		sweepWl   = flag.String("faultsweep-workload", "LU", "workload for the -fig faultsweep rate sweep")

		ckptDir    = flag.String("ckptdir", "", "run every figure config under the checkpoint supervisor, snapshotting into this directory")
		ckptPeriod = flag.Int64("ckptperiod", 1_000_000, "supervised snapshot cadence in cycles (with -ckptdir)")
		retries    = flag.Int("retries", 3, "bounded attempts per config under the supervisor (with -ckptdir)")
	)
	flag.Parse()

	if *benchMode {
		runBenchSuite()
		return
	}

	switch *table {
	case 1:
		printTable1()
		return
	case 2:
		printTable2()
		return
	}

	var sc workloads.Scale
	switch *scale {
	case "tiny":
		sc = workloads.Tiny
	case "small":
		sc = workloads.Small
	case "default":
		sc = workloads.Default
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}

	fc, err := config.ParseFaults(*faults)
	if err != nil {
		fatal(err)
	}
	fc.Seed = *faultSeed

	suite := experiments.NewSuite(sc)
	if *workers > 0 {
		suite.Parallel = *workers
	}
	if fc.Enabled() {
		suite.Faults = &fc
	}
	if *invar > 0 {
		suite.InvariantCycles = *invar
	}
	if *ckptDir != "" {
		if *ckptPeriod <= 0 {
			fatal(fmt.Errorf("-ckptperiod must be positive, got %d", *ckptPeriod))
		}
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
		suite.CkptDir = *ckptDir
		suite.CkptPeriod = *ckptPeriod
		suite.Attempts = *retries
	}
	if *only != "" {
		suite.Workloads = strings.Split(*only, ",")
	}
	if !*quiet {
		suite.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "  ", msg) }
	}

	writeCSV := func(name, data string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*csvDir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("2a") {
		pts, err := suite.Fig2a()
		fatalIf(err)
		fmt.Println("\n== Fig 2(a): system topology (normalized to No-HBM, geomean) ==")
		fmt.Println("paper: IDEAL ~6x bandwidth / ~1.33x data / ~4.5x speedup; HBM ~40% below IDEAL")
		var csv strings.Builder
		csv.WriteString("arch,rel_data,rel_bandwidth,rel_performance\n")
		for _, p := range pts {
			fmt.Printf("  %-6s data %.2fx  bandwidth %.2fx  performance %.2fx\n",
				p.Arch, p.RelData, p.RelBW, p.RelPerf)
			fmt.Fprintf(&csv, "%s,%.4f,%.4f,%.4f\n", p.Arch, p.RelData, p.RelBW, p.RelPerf)
		}
		writeCSV("fig2a.csv", csv.String())
	}

	if want("2b") {
		pts, err := suite.Fig2b()
		fatalIf(err)
		fmt.Println("\n== Fig 2(b): data granularity (normalized to 64B, geomean) ==")
		fmt.Println("paper: hit rate +12% (128B) / +21% (256B); performance -8..-24%")
		var csv strings.Builder
		csv.WriteString("granularity,rel_data,rel_bandwidth,rel_performance,hit_rate\n")
		for _, p := range pts {
			fmt.Printf("  %3dB data %.2fx  bandwidth %.2fx  performance %.2fx  hit %.1f%%\n",
				p.Granularity, p.RelData, p.RelBW, p.RelPerf, 100*p.HitRate)
			fmt.Fprintf(&csv, "%d,%.4f,%.4f,%.4f,%.4f\n",
				p.Granularity, p.RelData, p.RelBW, p.RelPerf, p.HitRate)
		}
		writeCSV("fig2b.csv", csv.String())
	}

	if want("3") {
		res, err := suite.Fig3(nil)
		fatalIf(err)
		fmt.Println("\n== Fig 3: off-chip bandwidth cost vs block reuses (No-HBM) ==")
		var csv strings.Builder
		csv.WriteString("workload,reuses,block_count,cost_cycles\n")
		for _, r := range res {
			experiments.Fig3Sketch(r, 12, os.Stdout)
			for _, g := range r.Groups {
				fmt.Fprintf(&csv, "%s,%d,%d,%d\n", r.Workload, g.Reuses, g.BlockCount, g.Cost)
			}
		}
		writeCSV("fig3.csv", csv.String())
	}

	var f9 *experiments.NormalizedSeries
	if want("9") {
		var err error
		f9, err = suite.Fig9()
		fatalIf(err)
		fmt.Println()
		f9.WriteTable(os.Stdout)
		fmt.Printf("paper: RedCache -31%% vs Alloy, -24%% vs Bear; α -27%%, γ -14%%; RedCache ~98%% of Red-InSitu\n")
		fmt.Printf("measured: RedCache %+.0f%% vs Alloy, %+.0f%% vs Bear; α %+.0f%%, γ %+.0f%%; RedCache/InSitu ratio %.2f\n",
			-100*f9.Improvement(hbm.ArchRedCache, hbm.ArchAlloy),
			-100*f9.Improvement(hbm.ArchRedCache, hbm.ArchBear),
			-100*f9.Improvement(hbm.ArchRedAlpha, hbm.ArchAlloy),
			-100*f9.Improvement(hbm.ArchRedGamma, hbm.ArchAlloy),
			f9.Mean[hbm.ArchRedInSitu]/f9.Mean[hbm.ArchRedCache])
		writeCSV("fig9.csv", f9.CSV())
	}

	if want("10") {
		f10, err := suite.Fig10()
		fatalIf(err)
		fmt.Println()
		f10.WriteTable(os.Stdout)
		fmt.Printf("paper: RedCache -42%% vs Alloy, -37%% vs Bear (and below Red-InSitu)\n")
		fmt.Printf("measured: RedCache %+.0f%% vs Alloy, %+.0f%% vs Bear\n",
			-100*f10.Improvement(hbm.ArchRedCache, hbm.ArchAlloy),
			-100*f10.Improvement(hbm.ArchRedCache, hbm.ArchBear))
		writeCSV("fig10.csv", f10.CSV())
	}

	if want("11") {
		f11, err := suite.Fig11()
		fatalIf(err)
		fmt.Println()
		f11.WriteTable(os.Stdout)
		fmt.Printf("paper: RedCache -29%% vs Alloy, -18%% vs Bear; Red-InSitu -33%% vs Alloy\n")
		fmt.Printf("measured: RedCache %+.0f%% vs Alloy, %+.0f%% vs Bear; Red-InSitu %+.0f%% vs Alloy\n",
			-100*f11.Improvement(hbm.ArchRedCache, hbm.ArchAlloy),
			-100*f11.Improvement(hbm.ArchRedCache, hbm.ArchBear),
			-100*f11.Improvement(hbm.ArchRedInSitu, hbm.ArchAlloy))
		writeCSV("fig11.csv", f11.CSV())
	}

	if *fig == "ablation" {
		fmt.Println("\n== Ablations (RedCache, normalized to the paper configuration) ==")
		// A slice, not a map: ablation sections must print in a fixed
		// order so the report is byte-stable across runs (detmaprange).
		for _, ab := range []struct {
			name string
			run  func() ([]experiments.AblationPoint, error)
		}{
			{"RCU queue size", suite.AblationRCUSize},
			{"alpha adaptivity", suite.AblationAlphaAdaptivity},
			{"gamma adaptivity", suite.AblationGammaAdaptivity},
		} {
			name, run := ab.name, ab.run
			pts, err := run()
			fatalIf(err)
			fmt.Printf("%s:\n", name)
			for _, p := range pts {
				fmt.Printf("  %-32s time %.3f  HBM energy %.3f\n",
					p.Name, p.RelTime, p.RelHBMEnergy)
			}
		}
	}

	// The fault sweep is opt-in like the ablations: it varies fault
	// rates across four decades, which the memoized figure cache keys
	// deliberately don't cover.
	if *fig == "faultsweep" {
		base := fc
		if !base.Enabled() {
			base = config.DefaultFaults()
			base.Seed = *faultSeed
		}
		pts, err := suite.FaultSweep(*sweepWl, hbm.ArchRedCache, base,
			experiments.DefaultSweepMultipliers)
		fatalIf(err)
		fmt.Printf("\n== Fault sweep (%s, RedCache, rates x multiplier of %s) ==\n",
			*sweepWl, base.Spec())
		fmt.Println("ECC-bits tradeoff: tag/row/bus faults are detected and degraded;")
		fmt.Println("data faults in the no-ECC region pass silently (DESIGN.md §10)")
		for _, p := range pts {
			fmt.Printf("  x%-6g detected %8d (tag %d, row %d, bus %d)  silent %8d (tag %d, data %d)  time %.3fx\n",
				p.Multiplier, p.Detected, p.TagDetected, p.Row, p.Bus,
				p.Silent, p.TagSilent, p.Data, p.RelTime)
		}
		writeCSV("faultsweep.csv", experiments.FaultSweepCSV(pts))
	}

	// Like ablation, the epoch-bandwidth series is opt-in: it needs one
	// extra telemetry-enabled simulation on top of the memoized figures.
	if *fig == "epochbw" {
		csv, err := suite.EpochBandwidthCSV(*epochWl, hbm.ArchRedCache, *epoch)
		fatalIf(err)
		fmt.Printf("\n== Per-epoch bandwidth (%s, RedCache, epoch %d cycles) ==\n", *epochWl, *epoch)
		fmt.Print(csv)
		writeCSV("epochbw.csv", csv)
	}

	if want("stats") {
		ts, err := suite.TextStats()
		fatalIf(err)
		fmt.Println("\n== Text statistics ==")
		ts.WriteTable(os.Stdout)
		fmt.Printf("§II-C last-access-is-write share (Alloy, mean): %.0f%% (paper >82%%)\n",
			100*ts.MeanLastWrite)
		fmt.Printf("§III-C r-count updates without dedicated transfer (RedCache, mean): %.0f%% (paper >97%%)\n",
			100*ts.MeanRCUFree)
	}
}

func printTable1() {
	s := config.Paper()
	d := config.Default()
	fmt.Println("Table I (paper values; scaled evaluation values in parentheses, DESIGN.md §2)")
	fmt.Printf("Cores: %d 4-issue OoO @ %.1f GHz, window %d\n",
		s.CPU.Cores, s.CPU.FreqGHz, s.CPU.MaxOutstanding)
	fmt.Printf("L1 %dKB/%d-way  L2 %dKB/%d-way  L3 %dMB/%d-way (%dKB)\n",
		s.L1.SizeB>>10, s.L1.Ways, s.L2.SizeB>>10, s.L2.Ways,
		s.L3.SizeB>>20, s.L3.Ways, d.L3.SizeB>>10)
	fmt.Printf("HBM cache: %dGB (%dMB), %d channels, %d ranks/ch, %d banks/rank, %d-bit bus\n",
		s.HBMCacheB>>30, d.HBMCacheB>>20, s.HBM.Geometry.Channels,
		s.HBM.Geometry.RanksPerChan, s.HBM.Geometry.BanksPerRank, s.HBM.Geometry.BusBytes*8)
	fmt.Printf("Main memory: %dGB DDR4, %d channels, %d ranks/ch, %d banks/rank, %d-bit bus\n",
		s.MainMem.Geometry.CapacityB>>30, s.MainMem.Geometry.Channels,
		s.MainMem.Geometry.RanksPerChan, s.MainMem.Geometry.BanksPerRank,
		s.MainMem.Geometry.BusBytes*8)
	t := s.HBM.Timing
	fmt.Printf("HBM timing (CPU cycles): tRCD %d tCAS %d tCCD %d tWTR %d tWR %d tRTP %d tBL %d tCWD %d tRP %d tRRD %d tRAS %d tRC %d tFAW %d\n",
		t.TRCD, t.TCAS, t.TCCD, t.TWTR, t.TWR, t.TRTP, t.TBL, t.TCWD, t.TRP, t.TRRD, t.TRAS, t.TRC, t.TFAW)
	t = s.MainMem.Timing
	fmt.Printf("DDR4 timing (CPU cycles): tRCD %d tCAS %d tCCD %d tWTR %d tWR %d tRTP %d tBL %d tCWD %d tRP %d tRRD %d tRAS %d tRC %d tFAW %d\n",
		t.TRCD, t.TCAS, t.TCCD, t.TWTR, t.TWR, t.TRTP, t.TBL, t.TCWD, t.TRP, t.TRRD, t.TRAS, t.TRC, t.TFAW)
}

func printTable2() {
	fmt.Println("Table II: workloads and data sets")
	for _, s := range workloads.Catalog() {
		fmt.Printf("  %-5s %-24s %-9s %s\n", s.Label, s.Name, s.Suite, s.Input)
	}
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "redbench:", err)
	os.Exit(1)
}
