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
//
// Exit status: 0 on success, 1 on a runtime failure, 2 on a usage
// error (an unknown -fig, -table, -scale, -workloads label or
// -epochbw-workload, a non-positive -epoch, or a negative -parallel or
// -invariants).  Every flag is checked before any work starts.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"redcache/internal/config"
	"redcache/internal/experiments"
	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

func main() {
	var f flags
	flag.StringVar(&f.fig, "fig", "all", "figure to regenerate: 2a, 2b, 3, 9, 10, 11, stats, ablation, epochbw or all")
	flag.StringVar(&f.scale, "scale", "default", "problem size: tiny, small or default")
	flag.IntVar(&f.table, "table", 0, "print Table 1 (config) or 2 (workloads) and exit")
	flag.StringVar(&f.workloads, "workloads", "", "comma-separated workload subset (default: all 11)")
	flag.IntVar(&f.parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	flag.Int64Var(&f.epoch, "epoch", 100000, "telemetry epoch length in CPU cycles (-fig epochbw)")
	flag.StringVar(&f.epochWl, "epochbw-workload", "LU", "workload for the -fig epochbw time series")
	flag.Int64Var(&f.invariants, "invariants", 0, "online invariant check period in cycles for every run (0 = off)")
	csvDir := flag.String("csv", "", "directory to write CSV outputs into")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	flag.Parse()
	sc, only, err := checkFlags(f)
	if err != nil {
		usage(err)
	}

	switch f.table {
	case 1:
		printTable1()
		return
	case 2:
		printTable2()
		return
	}

	suite := experiments.NewSuite(sc)
	if f.parallel > 0 {
		suite.Parallel = f.parallel
	}
	if f.invariants > 0 {
		suite.InvariantCycles = f.invariants
	}
	suite.Workloads = only
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

	want := func(fig string) bool { return f.fig == "all" || f.fig == fig }

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
		res, err := suite.Fig3(only)
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

	if f.fig == "ablation" {
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

	// Like ablation, the epoch-bandwidth series is opt-in: it needs one
	// extra telemetry-enabled simulation on top of the memoized figures.
	if f.fig == "epochbw" {
		csv, err := suite.EpochBandwidthCSV(f.epochWl, hbm.ArchRedCache, f.epoch)
		fatalIf(err)
		fmt.Printf("\n== Per-epoch bandwidth (%s, RedCache, epoch %d cycles) ==\n", f.epochWl, f.epoch)
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

// figs lists the accepted -fig values: "all", each paper figure, the
// text statistics, and the opt-in studies.
var figs = []string{"all", "2a", "2b", "3", "9", "10", "11", "stats", "ablation", "epochbw"}

// flags holds the command-line values checkFlags validates.
type flags struct {
	fig        string
	table      int
	scale      string
	workloads  string
	parallel   int
	epoch      int64
	epochWl    string
	invariants int64
}

// checkFlags rejects every bad flag value before any work starts: an
// unknown -fig prints nothing, an unknown -table runs the whole
// evaluation, negative -parallel or -invariants would be dropped as if
// unset, and a bad -scale, workload label or -epoch would otherwise
// surface only after tables were printed or runs had started.  It
// returns the parsed scale and the -workloads subset (nil means all).
func checkFlags(f flags) (workloads.Scale, []string, error) {
	if !slices.Contains(figs, f.fig) {
		return 0, nil, fmt.Errorf("unknown -fig %q (want one of %s)", f.fig, strings.Join(figs, ", "))
	}
	if f.table != 0 && f.table != 1 && f.table != 2 {
		return 0, nil, fmt.Errorf("unknown -table %d (want 1 or 2)", f.table)
	}
	sc, err := workloads.ParseScale(f.scale)
	if err != nil {
		return 0, nil, fmt.Errorf("unknown -scale %q (want tiny, small or default)", f.scale)
	}
	var only []string
	if f.workloads != "" {
		only = strings.Split(f.workloads, ",")
	}
	for _, label := range only {
		if _, err := workloads.ByLabel(label); err != nil {
			return 0, nil, fmt.Errorf("-workloads: %w", err)
		}
	}
	if _, err := workloads.ByLabel(f.epochWl); err != nil {
		return 0, nil, fmt.Errorf("-epochbw-workload: %w", err)
	}
	if f.parallel < 0 {
		return 0, nil, fmt.Errorf("-parallel must be non-negative, got %d", f.parallel)
	}
	if f.epoch <= 0 {
		return 0, nil, fmt.Errorf("-epoch must be positive, got %d", f.epoch)
	}
	if f.invariants < 0 {
		return 0, nil, fmt.Errorf("-invariants must be non-negative, got %d", f.invariants)
	}
	return sc, only, nil
}

// usage reports a bad flag value and exits 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "redbench:", err)
	os.Exit(2)
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
