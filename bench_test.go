package redcache

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, each reporting the headline metric the figure
// plots via b.ReportMetric.  Benchmarks run at the small workload scale
// on a workload subset so `go test -bench=.` finishes in minutes; the
// full default-scale regeneration is `go run ./cmd/redbench`.

import (
	"testing"

	"redcache/internal/experiments"
	"redcache/internal/hbm"
	"redcache/internal/workloads"
)

// benchWorkloads is the subset used by the benchmark harness: one
// representative per behavior class (blocked kernel, strided FFT,
// stencil, streaming).
var benchWorkloads = []string{"LU", "FFT", "MG", "HIST"}

func benchSuite() *experiments.Suite {
	s := experiments.NewSuite(workloads.Small)
	s.Workloads = benchWorkloads
	return s
}

// BenchmarkFig2aTopology regenerates the Fig 2(a) bandwidth-efficiency
// points and reports IDEAL's speedup over No-HBM.
func BenchmarkFig2aTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		pts, err := s.Fig2a()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Arch == hbm.ArchIdeal {
				b.ReportMetric(p.RelPerf, "ideal-speedup")
				b.ReportMetric(p.RelBW, "ideal-rel-bw")
			}
		}
	}
}

// BenchmarkFig2bGranularity regenerates the Fig 2(b) granularity sweep
// and reports the 256 B configuration's relative performance.
func BenchmarkFig2bGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		pts, err := s.Fig2b()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Granularity == 256 {
				b.ReportMetric(p.RelPerf, "256B-rel-perf")
				b.ReportMetric(p.HitRate, "256B-hit-rate")
			}
		}
	}
}

// BenchmarkFig3Histograms regenerates the homo-reuse histograms and
// reports the peak-window bandwidth share for LU.
func BenchmarkFig3Histograms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		res, err := s.Fig3([]string{"LU", "HIST"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].PeakShare, "LU-peak-share")
	}
}

// BenchmarkFig9ExecutionTime regenerates the execution-time comparison
// and reports RedCache's normalized time (lower is better; the paper
// reports 0.69 vs Alloy).
func BenchmarkFig9ExecutionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		f, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Mean[hbm.ArchRedCache], "redcache-vs-alloy")
		b.ReportMetric(f.Mean[hbm.ArchBear], "bear-vs-alloy")
	}
}

// BenchmarkFig10HBMEnergy regenerates the HBM-cache energy comparison.
func BenchmarkFig10HBMEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		f, err := s.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Mean[hbm.ArchRedCache], "redcache-vs-alloy")
	}
}

// BenchmarkFig11SystemEnergy regenerates the system energy comparison.
func BenchmarkFig11SystemEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		f, err := s.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Mean[hbm.ArchRedCache], "redcache-vs-alloy")
		b.ReportMetric(f.Mean[hbm.ArchRedInSitu], "insitu-vs-alloy")
	}
}

// BenchmarkArchitectures measures raw simulation throughput per
// architecture on one workload (an ablation of controller overheads),
// in trace records and engine events per wall second.
func BenchmarkArchitectures(b *testing.B) {
	cfg := DefaultConfig()
	tr, err := GenerateTrace("LU", cfg.CPU.Cores, ScaleSmall, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, arch := range Architectures() {
		b.Run(string(arch), func(b *testing.B) {
			var cycles int64
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg, arch, tr)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
				events += res.EventsFired
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(tr.Records()*b.N)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkWorkloadGeneration measures trace-generation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, label := range benchWorkloads {
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GenerateTrace(label, 16, ScaleSmall, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRCUSize sweeps the RCU queue capacity (DESIGN.md's
// design-choice ablation) and reports the 1-entry variant's slowdown.
func BenchmarkAblationRCUSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		s.Workloads = []string{"LU", "FFT"}
		pts, err := s.AblationRCUSize()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Name == "rcu-1" {
				b.ReportMetric(p.RelTime, "rcu1-rel-time")
			}
		}
	}
}

// BenchmarkAblationAdaptivity compares adaptive alpha/gamma against
// frozen thresholds.
func BenchmarkAblationAdaptivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		s.Workloads = []string{"LU", "HIST"}
		pts, err := s.AblationAlphaAdaptivity()
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Name == "fixed α=64" {
				b.ReportMetric(p.RelTime, "alpha64-rel-time")
			}
		}
	}
}

// BenchmarkTextStats reproduces the §II-C / §III-C statistics.
func BenchmarkTextStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		ts, err := s.TextStats()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ts.MeanLastWrite, "last-write-share")
		b.ReportMetric(ts.MeanRCUFree, "rcu-free-share")
	}
}
