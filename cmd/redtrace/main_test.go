package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"redcache/internal/workloads"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{},                                  // no mode selected
		{"-no-such-flag"},                   // unknown flag
		{"-list", "-workload", "LU"},        // conflicting modes
		{"-inspect", "x.trc"},               // unknown flag: no file mode
		{"-out", "x.trc"},                   // unknown flag: no file mode
		{"-workload", "NOPE"},               // unknown workload
		{"-workload", "LU", "-scale", "xl"}, // unknown scale
		{"-workload", "LU", "-cores", "0"},  // invalid core count
	}
	for _, args := range cases {
		code, _, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("redtrace %v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
		if stderr == "" {
			t.Errorf("redtrace %v: no diagnostic on stderr", args)
		}
	}
}

func TestWorkloadSummary(t *testing.T) {
	code, stdout, stderr := runCLI("-workload", "MG", "-scale", "tiny", "-cores", "2", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	spec, err := workloads.ByLabel("MG")
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Gen(2, workloads.Tiny, 3)
	for _, want := range []string{
		fmt.Sprintf("records:    %d\n", tr.Records()),
		fmt.Sprintf("footprint:  %.2f MB (%d blocks)\n", float64(tr.FootprintBytes())/(1<<20), tr.Footprint()),
		fmt.Sprintf("write share: %.1f%%\n", 100*tr.WriteShare()),
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary missing %q:\n%s", want, stdout)
		}
	}
}

func TestListMode(t *testing.T) {
	code, stdout, stderr := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{"LABEL", "LU", "MG"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("catalog missing %q:\n%s", want, stdout)
		}
	}
}
