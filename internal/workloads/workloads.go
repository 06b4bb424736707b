// Package workloads re-implements the eleven parallel applications of
// Table II (NAS FT/IS/MG, SPLASH-2 CH/RDX/OCN/FFT/LU/BRN, Phoenix
// HIST/LREG) as block-granular memory-trace generators.  Each kernel
// executes its real algorithm over synthetic data (radix sort really
// sorts; LU really walks the factorization schedule), records 64 B block
// touches with non-memory instruction gaps, and partitions work across
// cores the way the original parallel program does.  Sizes are scaled to
// the simulator configuration (DESIGN.md §2); access *structure* — reuse
// distributions, strides, sharing — follows the applications.
package workloads

import (
	"fmt"

	"redcache/internal/mem"
	"redcache/internal/trace"
)

// Scale selects a problem size.
type Scale int

// Problem sizes: Tiny for unit tests (sub-MB footprints), Small for
// quick benchmarks, Default for regenerating the paper's figures.
const (
	Tiny Scale = iota
	Small
	Default
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	default:
		return "default"
	}
}

// ParseScale is the inverse of String.
func ParseScale(s string) (Scale, error) {
	for _, sc := range []Scale{Tiny, Small, Default} {
		if s == sc.String() {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small or default)", s)
}

// Spec describes one benchmark from Table II.
type Spec struct {
	Label string // short name used in the figures (e.g. "LU")
	Name  string // full benchmark name
	Suite string // NAS, SPLASH-2 or PHOENIX
	Input string // the paper's input description
	Gen   func(cores int, sc Scale, seed int64) *trace.Trace
}

// Catalog lists the workloads in Table II order.
func Catalog() []Spec {
	return []Spec{
		{"FT", "Fourier Transform", "NAS", "Class A", FT},
		{"IS", "Integer Sort", "NAS", "Class A", IS},
		{"MG", "Multi-Grid", "NAS", "Class A", MG},
		{"CH", "Cholesky", "SPLASH-2", "tk29.0", CH},
		{"RDX", "Radix", "SPLASH-2", "2M integers", RDX},
		{"OCN", "Ocean", "SPLASH-2", "514x514 ocean", OCN},
		{"FFT", "FFT", "SPLASH-2", "1048576 data points", FFT},
		{"LU", "Lower/Upper Triangular", "SPLASH-2", "isiz02=64", LU},
		{"BRN", "Barnes", "SPLASH-2", "16K particles", BRN},
		{"HIST", "Histogram", "PHOENIX", "100MB file", HIST},
		{"LREG", "Linear Regression", "PHOENIX", "50MB key file", LREG},
	}
}

// Labels returns the catalog's short names in order.
func Labels() []string {
	var out []string
	for _, s := range Catalog() {
		out = append(out, s.Label)
	}
	return out
}

// ByLabel finds a workload by its short name.
func ByLabel(label string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Label == label {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown label %q", label)
}

// gen is the shared generator state: per-core builders plus a bump
// allocator laying out the program's arrays in the physical space.
type gen struct {
	b    []*trace.Builder
	next mem.Addr
}

func newGen(cores int) *gen {
	g := &gen{next: 1 << 20} // leave the first MB unused
	for i := 0; i < cores; i++ {
		g.b = append(g.b, &trace.Builder{})
	}
	return g
}

// region reserves a page-aligned array of the given size.
func (g *gen) region(bytes int64) mem.Addr {
	base := g.next
	pages := (bytes + mem.PageSize - 1) / mem.PageSize
	g.next += mem.Addr(pages * mem.PageSize)
	return base
}

// trace packages the builders into a named Trace.
func (g *gen) trace(name string) *trace.Trace {
	t := &trace.Trace{Name: name}
	for _, b := range g.b {
		t.Streams = append(t.Streams, b.Stream())
	}
	return t
}

// gapShift scales down the kernels' nominal per-step instruction counts
// so the scaled system operates in the bandwidth-bound regime the paper
// studies (§II-A: an IDEAL cache several times faster than No-HBM).  The
// nominal counts describe the arithmetic of each kernel; the shift is
// the memory-intensity calibration documented in DESIGN.md §2.
const gapShift = 2

// work records n nominal non-memory instructions before the next access.
func work(b *trace.Builder, n int) { b.Work(n >> gapShift) }

// split returns core c's half-open share [lo,hi) of n work items under a
// block-contiguous partition.
func split(n, cores, c int) (lo, hi int) {
	lo = n * c / cores
	hi = n * (c + 1) / cores
	return
}

// pick selects a size by scale.
func pick(sc Scale, tiny, small, def int) int {
	switch sc {
	case Tiny:
		return tiny
	case Small:
		return small
	default:
		return def
	}
}
