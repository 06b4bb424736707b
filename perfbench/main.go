// Command perfbench is the repository benchmark.  It runs one named
// workload from one process for a time budget and prints its metrics as
// the last line of standard output:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it adds a traced pass (CPU profile plus cycle-domain
// telemetry) and reports the per-layer metrics.  README.md describes the
// workloads and what each metric should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-sweep, fill-stream or reuse-redcache")
	seed := fs.Int64("seed", 1, "workload seed (1 is the seed the simulator's goldens use)")
	seconds := fs.Float64("seconds", 10, "time budget for the timed repetitions")
	traced := fs.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1 (workloads: %s)\n", workloadNames())
		return 2
	}

	fmt.Fprintf(stdout, "perfbench: host num_cpu=%d gomaxprocs=%d go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	rep, err := measure(w, *seed, *seconds, *traced == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	if err := writeSummary(stdout, rep.correct, rep.attempted, rep.failed, defs, rep.values); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
