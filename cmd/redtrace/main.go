// Command redtrace generates and inspects workload memory traces.
//
// Usage:
//
//	redtrace -list
//	redtrace -workload LU [-scale default] [-cores 16] [-seed 1] [-out lu.trc]
//	redtrace -inspect lu.trc
//
// Without -out, the tool prints a summary: record count, footprint,
// write share, and a reuse-count histogram sketch.
//
// Exit status: 0 on success, 1 on a runtime failure (unreadable or
// corrupt trace file, write error), 2 on a usage error (unknown flags,
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

// run is the testable body of the command.  Usage errors return 2,
// runtime failures return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("redtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available workloads")
		workload = fs.String("workload", "", "workload label (e.g. LU)")
		scale    = fs.String("scale", "default", "problem size: tiny, small or default")
		cores    = fs.Int("cores", 16, "number of cores / trace streams")
		seed     = fs.Int64("seed", 1, "workload PRNG seed")
		out      = fs.String("out", "", "write the binary trace to this file")
		inspect  = fs.String("inspect", "", "summarize an existing trace file")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already reported to stderr
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "redtrace:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "redtrace:", err)
		return 1
	}

	// The three modes are mutually exclusive; picking none (or an -out
	// with nothing to write) is a usage error, not a silent no-op.
	modes := 0
	for _, on := range []bool{*list, *inspect != "", *workload != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return usage(fmt.Errorf("choose one of -list, -inspect or -workload"))
	}
	if *out != "" && *workload == "" {
		return usage(fmt.Errorf("-out requires -workload"))
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
	case *inspect != "":
		f, err := os.Open(*inspect)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tr, err := trace.Decode(f)
		if err != nil {
			return fail(fmt.Errorf("inspecting %s: %w", *inspect, err))
		}
		summarize(stdout, tr)
	case *workload != "":
		spec, err := workloads.ByLabel(*workload)
		if err != nil {
			return usage(err)
		}
		sc, err := workloads.ParseScale(*scale)
		if err != nil {
			return usage(err)
		}
		tr := spec.Gen(*cores, sc, *seed)
		if *out != "" {
			if err := writeTrace(*out, tr); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "wrote %s\n", *out)
		}
		summarize(stdout, tr)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// writeTrace encodes tr into path, reporting the first error from
// create, encode, or close.
func writeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Encode(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
