package lint

import (
	"go/token"
	"strings"
	"testing"
)

const baselineDoc = `# redvet baseline — sanctioned legacy findings.
# Each line is one JSON entry; the file may only shrink.

{"analyzer":"noalloc","file":"internal/x/x.go","message":"allocation on hot path f: make allocates","justification":"legacy buffer, tracked in the v2 cleanup"}
{"analyzer":"cycleunits","file":"internal/y/y.go","message":"truncating conversion int32(ns) narrows an int64 (cycle-valued) quantity","justification":"bounded by the config validator, analyzer cannot see it"}
`

func TestParseBaseline(t *testing.T) {
	b, err := ParseBaseline([]byte(baselineDoc))
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
}

func TestParseBaselineRejects(t *testing.T) {
	cases := []struct {
		name, line, wantErr string
	}{
		{"not json", "nonsense", "baseline line 1"},
		{"missing fields", `{"analyzer":"noalloc"}`, "all required"},
		{"missing justification", `{"analyzer":"a","file":"f","message":"m"}`, "justification"},
		{"blank justification", `{"analyzer":"a","file":"f","message":"m","justification":"  "}`, "justification"},
		{
			"duplicate",
			`{"analyzer":"a","file":"f","message":"m","justification":"x"}` + "\n" +
				`{"analyzer":"a","file":"f","message":"m","justification":"y"}`,
			"duplicate",
		},
	}
	for _, c := range cases {
		if _, err := ParseBaseline([]byte(c.line)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}

func diag(analyzer, file, msg string) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: 1, Column: 1},
		Message:  msg,
	}
}

func TestBaselineFilterAndStale(t *testing.T) {
	b, err := ParseBaseline([]byte(baselineDoc))
	if err != nil {
		t.Fatal(err)
	}
	ds := []Diagnostic{
		diag("noalloc", "/repo/internal/x/x.go", "allocation on hot path f: make allocates"),
		diag("noalloc", "/repo/internal/x/x.go", "a brand new finding"),
	}
	kept, stale := b.Filter("/repo", ds)
	if len(kept) != 1 || kept[0].Message != "a brand new finding" {
		t.Fatalf("kept = %v, want only the new finding", kept)
	}
	if len(stale) != 1 || stale[0].Analyzer != "cycleunits" {
		t.Fatalf("stale = %v, want the unmatched cycleunits entry", stale)
	}
}

// TestBaselineV3Analyzers checks that baseline entries for the v3
// determinism analyzers round-trip through Filter like any other, and
// that an entry left behind after the finding is fixed surfaces as
// stale rather than silently sanctioning future regressions.
func TestBaselineV3Analyzers(t *testing.T) {
	doc := `{"analyzer":"detsched","file":"internal/experiments/experiments.go","message":"go statement: goroutine interleaving is scheduler-chosen, not (at, seq)-ordered","justification":"harness fan-out, replaced by detsafe annotation"}
{"analyzer":"detsched","file":"internal/sim/sim.go","message":"select over multiple channels: the runtime picks a ready case at random","justification":"transitional watchdog select, removed with the run-loop rewrite"}
{"analyzer":"fporder","file":"internal/stats/stats.go","message":"reduces xs in nondeterministic order into a float accumulator; sort it first or annotate //redvet:fporder with a justification","justification":"legacy reducer, sorted upstream since v2"}
`
	b, err := ParseBaseline([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	ds := []Diagnostic{
		diag("detsched", "/repo/internal/experiments/experiments.go",
			"go statement: goroutine interleaving is scheduler-chosen, not (at, seq)-ordered"),
		diag("fporder", "/repo/internal/dram/dram.go", "a brand new v3 finding"),
	}
	kept, stale := b.Filter("/repo", ds)
	if len(kept) != 1 || kept[0].Message != "a brand new v3 finding" {
		t.Fatalf("kept = %v, want only the unsanctioned fporder finding", kept)
	}
	if len(stale) != 2 {
		t.Fatalf("stale = %v, want the fixed detsched and fporder entries", stale)
	}
	staleAnalyzers := map[string]bool{}
	for _, s := range stale {
		staleAnalyzers[s.Analyzer] = true
	}
	if !staleAnalyzers["detsched"] || !staleAnalyzers["fporder"] {
		t.Fatalf("stale analyzers = %v, want detsched and fporder", staleAnalyzers)
	}
}

func TestRelFile(t *testing.T) {
	if got := RelFile("/repo", "/repo/internal/x/x.go"); got != "internal/x/x.go" {
		t.Errorf("RelFile inside root = %q", got)
	}
	if got := RelFile("/repo", "/elsewhere/y.go"); got != "/elsewhere/y.go" {
		t.Errorf("RelFile outside root = %q", got)
	}
}
