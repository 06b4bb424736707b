package main

import (
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"redcache/internal/workloads"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name string
		set  func(*flags)
		ok   bool
	}{
		{"defaults", func(*flags) {}, true},
		{"every knob set", func(f *flags) {
			f.fig, f.table, f.scale, f.workloads = "ablation", 2, "tiny", "LU,HIST"
			f.parallel, f.epoch, f.epochWl, f.invariants = 4, 5000, "FT", 10000
		}, true},
		{"unknown fig", func(f *flags) { f.fig = "bogus" }, false},
		{"empty fig", func(f *flags) { f.fig = "" }, false},
		{"unknown table", func(f *flags) { f.table = 3 }, false},
		{"negative table", func(f *flags) { f.table = -1 }, false},
		{"negative parallel", func(f *flags) { f.parallel = -4 }, false},
		{"negative invariants", func(f *flags) { f.invariants = -7 }, false},
		{"unknown scale", func(f *flags) { f.scale = "bogus" }, false},
		{"unknown scale with table", func(f *flags) { f.table, f.scale = 1, "bogus" }, false},
		{"unknown workload", func(f *flags) { f.workloads = "BOGUS" }, false},
		{"empty workload label", func(f *flags) { f.workloads = "LU," }, false},
		{"zero epoch", func(f *flags) { f.fig, f.epoch = "epochbw", 0 }, false},
		{"unknown epochbw workload", func(f *flags) { f.fig, f.epochWl = "epochbw", "NOPE" }, false},
	}
	for _, c := range cases {
		f := flags{fig: "all", scale: "default", epoch: 100000, epochWl: "LU"}
		c.set(&f)
		if _, _, err := checkFlags(f); (err == nil) != c.ok {
			t.Errorf("%s: checkFlags(%+v) = %v, want ok=%v", c.name, f, err, c.ok)
		}
	}

	sc, only, err := checkFlags(flags{fig: "all", scale: "tiny", workloads: "LU,HIST", epoch: 1, epochWl: "LU"})
	if err != nil || sc != workloads.Tiny || !slices.Equal(only, []string{"LU", "HIST"}) {
		t.Errorf("checkFlags parsed scale %v, workloads %q, err %v; want tiny, [LU HIST], nil", sc, only, err)
	}
}

// TestMain lets a test run redbench's main in a child process: with
// REDBENCH_MAIN set, the test binary is redbench.
func TestMain(m *testing.M) {
	if os.Getenv("REDBENCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runRedbench runs redbench with args in a child process and returns
// its standard output.
func runRedbench(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REDBENCH_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("redbench %v: %v", args, err)
	}
	return string(out)
}

// fig3Panels lists the workload of every Fig 3 sketch in a report.
func fig3Panels(report string) []string {
	var out []string
	for _, line := range strings.Split(report, "\n") {
		if w, _, ok := strings.Cut(line, " (reuse 0.."); ok && !strings.HasPrefix(line, " ") {
			out = append(out, w)
		}
	}
	return out
}

func TestFig3HonoursWorkloads(t *testing.T) {
	if got := fig3Panels(runRedbench(t, "-scale", "tiny", "-workloads", "LU", "-fig", "3", "-q")); !slices.Equal(got, []string{"LU"}) {
		t.Errorf("-workloads LU -fig 3 printed panels %q, want [LU]", got)
	}
	if got := fig3Panels(runRedbench(t, "-scale", "tiny", "-fig", "3", "-q")); !slices.Equal(got, []string{"LU", "MG", "RDX", "HIST"}) {
		t.Errorf("-fig 3 printed panels %q, want the paper's four", got)
	}
}
