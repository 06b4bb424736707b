package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// validName reports whether a metric name uses only letters, digits,
// '_', '.' and '-', starting with a letter or digit.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.name) {
			t.Errorf("metric name %q uses characters outside letters, digits, '_', '.', '-'", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, l := range layers {
		if !seen[l+".self_s"] {
			t.Errorf("layer %s has no self_s metric", l)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "é", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}

// TestBenchmarkJSON keeps the declared metrics and workloads in step
// with the program.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program %d", len(spec.Workloads), len(benchWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != benchWorkloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, benchWorkloads[i].name)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	var out bytes.Buffer
	vals := map[string]float64{"wall_s": 1.5, "setup_s": 0.25, "peak_heap_mb": 12, "extra": 3}
	if err := writeSummary(&out, true, 4, 0, endToEnd, vals); err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if !s.Correct || s.Attempted != 4 || len(s.Metrics) != len(endToEnd) || s.Metrics["wall_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("summary = %+v", s)
	}
	delete(vals, "setup_s")
	if err := writeSummary(&out, true, 4, 0, endToEnd, vals); err == nil {
		t.Error("summary with a missing metric written without error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 0.9: 3.7, 1: 4} {
		if got := quantile(xs, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
