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
		{"-faults", "bogus=1"},
		{"-faults", "tag=2.0"},
		{"-invperiod", "0"},
		{"-maxcycles", "-1"},
		{"-events"}, // -events without -telemetry
		{"-ckptperiod", "-1"},
		{"-ckptperiod", "1000"}, // -ckptperiod without -ckpt
		{"-resume"},             // -resume without -ckpt
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

	// Unknown architectures surface through sim.Run's validation.
	code, _, stderr = runCLI("-scale", "tiny", "-cores", "4", "-arch", "NopeCache")
	if code != 1 {
		t.Errorf("unknown arch: exit %d, want 1 (stderr %q)", code, stderr)
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
	if strings.Contains(stdout, "faults:") {
		t.Error("fault-free run reported fault counters")
	}
}

func TestFaultedRunDeterministic(t *testing.T) {
	// Rates well above the defaults so the tiny run draws enough faults
	// for two seeds to visibly diverge.
	spec := "tag=0.02,tagescape=0.1,rcount=0.02,data=0.02,row=0.002,bus=0.02"
	args := []string{"-scale", "tiny", "-cores", "4", "-faults", spec, "-faultseed", "7"}
	code, first, stderr := runCLI(args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(first, "faults:") || !strings.Contains(first, "detected=") {
		t.Fatalf("faulted run did not report fault counters:\n%s", first)
	}
	code, second, _ := runCLI(args...)
	if code != 0 {
		t.Fatal("repeat run failed")
	}
	if stripWall(first) != stripWall(second) {
		t.Errorf("same (seed, faultseed) produced different reports:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}

	code, other, _ := runCLI("-scale", "tiny", "-cores", "4", "-faults", spec, "-faultseed", "8")
	if code != 0 {
		t.Fatal("other-seed run failed")
	}
	if stripWall(first) == stripWall(other) {
		t.Error("different fault seeds produced identical reports")
	}
}

func TestCheckpointCLI(t *testing.T) {
	base := []string{"-scale", "tiny", "-cores", "4"}
	code, ref, stderr := runCLI(base...)
	if code != 0 {
		t.Fatalf("plain run: exit %d, stderr %q", code, stderr)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	ckArgs := append(append([]string{}, base...), "-ckpt", path, "-ckptperiod", "10000")
	code, ck, stderr := runCLI(ckArgs...)
	if code != 0 {
		t.Fatalf("checkpointed run: exit %d, stderr %q", code, stderr)
	}
	if stripWall(ck) != stripWall(ref) {
		t.Errorf("-ckptperiod perturbed the report:\n--- plain ---\n%s\n--- checkpointed ---\n%s", ref, ck)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpointed run left no snapshot: %v", err)
	}

	resArgs := append(append([]string{}, base...), "-ckpt", path, "-resume")
	code, res, stderr := runCLI(resArgs...)
	if code != 0 {
		t.Fatalf("resume: exit %d, stderr %q", code, stderr)
	}
	if stripWall(res) != stripWall(ref) {
		t.Errorf("-resume diverged from the uninterrupted run:\n--- plain ---\n%s\n--- resumed ---\n%s", ref, res)
	}

	// Mismatched flags: same file, different fault spec.
	code, _, stderr = runCLI(append(append([]string{}, resArgs...), "-faults", "default")...)
	if code != 2 {
		t.Errorf("mismatched resume: exit %d, want 2 (stderr %q)", code, stderr)
	}

	// Damaged file: flip one byte mid-payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI(resArgs...)
	if code != 2 {
		t.Errorf("corrupt resume: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if stderr == "" {
		t.Error("corrupt resume printed no diagnostic")
	}

	// A missing checkpoint is a runtime failure (exit 1), not a reject:
	// the caller may want to fall back to a fresh run.
	code, _, _ = runCLI(append(append([]string{}, base...), "-ckpt", path+".nope", "-resume")...)
	if code != 1 {
		t.Errorf("missing checkpoint: exit %d, want 1", code)
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
