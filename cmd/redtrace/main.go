// Command redtrace generates a workload memory trace and prints its
// summary.
//
// Usage:
//
//	redtrace -list
//	redtrace -workload LU [-scale default] [-cores 16] [-seed 1]
//
// With -workload, the tool prints a summary: record count, footprint,
// write share, and a reuse-count histogram sketch.
//
// Exit status: 0 on success, 2 on a usage error (unknown flags,
// conflicting modes, unknown workload or scale).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"redcache/internal/trace"
	"redcache/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of the command.  Usage errors return 2.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("redtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available workloads")
		workload = fs.String("workload", "", "workload label (e.g. LU)")
		scale    = fs.String("scale", "default", "problem size: tiny, small or default")
		cores    = fs.Int("cores", 16, "number of cores / trace streams")
		seed     = fs.Int64("seed", 1, "workload PRNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already reported to stderr
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "redtrace:", err)
		return 2
	}

	// The two modes are mutually exclusive; picking none is a usage
	// error, not a silent no-op.
	if *list && *workload != "" {
		return usage(fmt.Errorf("choose one of -list or -workload"))
	}
	if *cores < 1 {
		return usage(fmt.Errorf("-cores must be positive, got %d", *cores))
	}

	switch {
	case *list:
		w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "LABEL\tBENCHMARK\tSUITE\tPAPER INPUT")
		for _, s := range workloads.Catalog() {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", s.Label, s.Name, s.Suite, s.Input)
		}
		w.Flush()
	case *workload != "":
		spec, err := workloads.ByLabel(*workload)
		if err != nil {
			return usage(err)
		}
		sc, err := workloads.ParseScale(*scale)
		if err != nil {
			return usage(err)
		}
		summarize(stdout, spec.Gen(*cores, sc, *seed))
	default:
		fs.Usage()
		return 2
	}
	return 0
}

func summarize(w io.Writer, tr *trace.Trace) {
	fmt.Fprintf(w, "workload:   %s\n", tr.Name)
	fmt.Fprintf(w, "streams:    %d\n", tr.Cores())
	fmt.Fprintf(w, "records:    %d\n", tr.Records())
	fmt.Fprintf(w, "footprint:  %.2f MB (%d blocks)\n",
		float64(tr.FootprintBytes())/(1<<20), tr.Footprint())
	fmt.Fprintf(w, "write share: %.1f%%\n", 100*tr.WriteShare())

	reuse := tr.ReuseCounts()
	hist := map[int]int{}
	for _, n := range reuse {
		hist[bucket(n)]++
	}
	var keys []int
	for k := range hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Fprintln(w, "reuse histogram (accesses per block -> #blocks):")
	for _, k := range keys {
		fmt.Fprintf(w, "  %4d+: %d\n", k, hist[k])
	}
}

func bucket(n int) int {
	b := 1
	for b*2 <= n {
		b *= 2
	}
	return b
}
