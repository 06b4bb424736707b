// Package redcache is a reproduction of "RedCache: Reduced DRAM Caching"
// (Behnam & Bojnordi, DAC 2020) as a self-contained simulation library.
//
// It models a 16-core CPU with three SRAM cache levels over an
// in-package HBM DRAM cache (WideIO interface) and off-chip DDR4 main
// memory, and implements the paper's DRAM-cache controller family:
// the Alloy and BEAR baselines, the No-HBM / IDEAL reference topologies,
// and the RedCache variants built on adaptive alpha/gamma counting with
// an r-count update (RCU) manager.
//
// Quick start:
//
//	cfg := redcache.DefaultConfig()
//	tr := redcache.GenerateTrace("LU", cfg.CPU.Cores, redcache.ScaleSmall, 1)
//	res, err := redcache.Run(cfg, redcache.RedCache, tr)
//	if err != nil { ... }
//	fmt.Println(res.Cycles, res.Ctl.Demand.HitRate())
//
// The experiment harnesses that regenerate every figure of the paper's
// evaluation live behind NewSuite; the cmd/redbench tool drives them
// from the command line.  See DESIGN.md for the system inventory and
// EXPERIMENTS.md for measured-vs-paper results.
package redcache

import (
	"redcache/internal/config"
	"redcache/internal/experiments"
	"redcache/internal/hbm"
	"redcache/internal/mem"
	"redcache/internal/sim"
	"redcache/internal/trace"
	"redcache/internal/workloads"
)

// Architecture names a DRAM-cache controller architecture.
type Architecture = hbm.Arch

// The architectures of the paper's evaluation (§II and §IV-A).
const (
	NoHBM     = hbm.ArchNoHBM
	Ideal     = hbm.ArchIdeal
	Alloy     = hbm.ArchAlloy
	Bear      = hbm.ArchBear
	RedAlpha  = hbm.ArchRedAlpha
	RedGamma  = hbm.ArchRedGamma
	RedBasic  = hbm.ArchRedBasic
	RedInSitu = hbm.ArchRedInSitu
	RedCache  = hbm.ArchRedCache
)

// Architectures lists every architecture in presentation order.
func Architectures() []Architecture { return hbm.All() }

// Config is the full simulated-system description (Table I shape).
type Config = config.System

// DefaultConfig returns the scaled evaluation configuration: Table I
// timing parameters with laptop-scale capacities (DESIGN.md §2).
func DefaultConfig() *Config { return config.Default() }

// PaperConfig returns the verbatim Table I configuration.  It validates
// and simulates, but its 2 GB cache needs workloads far larger than the
// bundled generators produce to exercise the interesting regime.
func PaperConfig() *Config { return config.Paper() }

// Scale selects a workload problem size.
type Scale = workloads.Scale

// Workload scales: tiny (unit tests), small (quick runs), default (the
// figure-regeneration size).
const (
	ScaleTiny    = workloads.Tiny
	ScaleSmall   = workloads.Small
	ScaleDefault = workloads.Default
)

// Trace is a block-granular multicore memory trace.
type Trace = trace.Trace

// TraceStream is one core's record stream.
type TraceStream = trace.Stream

// TraceBuilder accumulates one core's stream for custom workloads.
type TraceBuilder = trace.Builder

// Addr is a physical byte address.
type Addr = mem.Addr

// Workloads returns the Table II benchmark labels in order.
func Workloads() []string { return workloads.Labels() }

// GenerateTrace produces the named Table II workload's trace.
func GenerateTrace(label string, cores int, sc Scale, seed int64) (*Trace, error) {
	spec, err := workloads.ByLabel(label)
	if err != nil {
		return nil, err
	}
	return spec.Gen(cores, sc, seed), nil
}

// Result carries everything measured about one run.
type Result = sim.Result

// Run simulates the trace on the given architecture.
func Run(cfg *Config, arch Architecture, t *Trace) (*Result, error) {
	return sim.Run(cfg, arch, t, nil)
}

// Suite memoizes and parallelizes the paper's experiments (Figs 2-11).
type Suite = experiments.Suite

// NewSuite builds an experiment suite at the given workload scale.
func NewSuite(sc Scale) *Suite { return experiments.NewSuite(sc) }
