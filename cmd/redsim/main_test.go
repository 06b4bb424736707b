package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes run() with captured output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// stripWall drops the wall-clock line, the only non-deterministic byte
// in the report.
func stripWall(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "s wall)") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-workload", "NOPE"},
		{"-scale", "huge"},
		{"-invperiod", "0"},
		{"-maxcycles", "-1"},
		{"-events"}, // -events without -telemetry
		{"-arch", "Nope"},
		{"-epoch", "0"},
		{"-cores", "-3"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("redsim %v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if stderr == "" {
			t.Errorf("redsim %v: no diagnostic on stderr", args)
		}
	}
}

func TestRuntimeErrorsExitOne(t *testing.T) {
	// An impossibly small watchdog budget is a structured runtime
	// failure: exit 1 and the guard named on stderr.
	code, _, stderr := runCLI("-scale", "tiny", "-cores", "4", "-maxcycles", "500")
	if code != 1 {
		t.Fatalf("watchdog trip: exit %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "watchdog") {
		t.Errorf("stderr %q does not name the watchdog", stderr)
	}
}

func TestCleanRunReport(t *testing.T) {
	code, stdout, stderr := runCLI("-scale", "tiny", "-cores", "4", "-invariants")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"== LU on RedCache", "execution time:", "IPC:", "invariants:", "sweeps clean",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report missing %q:\n%s", want, stdout)
		}
	}
}

// TestRunReportDeterministic runs the same invariant-checked run twice
// and compares the reports byte for byte, wall line aside: a wall-clock
// value leaking into simulated state would show up here.  HIST draws
// its keys from the seed, so a second seed must change the report.
func TestRunReportDeterministic(t *testing.T) {
	args := []string{"-workload", "HIST", "-scale", "tiny", "-cores", "4", "-invariants"}
	code, first, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	code, second, _ := runCLI(args...)
	if code != 0 {
		t.Fatal("repeat run failed")
	}
	if stripWall(first) != stripWall(second) {
		t.Errorf("same seed produced different reports:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}

	code, other, _ := runCLI(append(args, "-seed", "2")...)
	if code != 0 {
		t.Fatal("other-seed run failed")
	}
	if stripWall(first) == stripWall(other) {
		t.Error("different seeds produced identical reports")
	}
}

func TestTelemetrySummaryLine(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI("-scale", "tiny", "-cores", "4",
		"-telemetry", dir, "-epoch", "5000", "-events")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	// CI greps this exact shape; keep it stable.
	if !strings.Contains(stdout, "telemetry: ") || !strings.Contains(stdout, " samples x ") {
		t.Errorf("telemetry summary line missing:\n%s", stdout)
	}
	for _, f := range []string{"series.jsonl", "series.csv", "events.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("telemetry output %s: %v", f, err)
		}
	}
}
