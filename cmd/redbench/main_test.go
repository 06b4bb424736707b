package main

import "testing"

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name       string
		fig        string
		table      int
		parallel   int
		invariants int64
		ok         bool
	}{
		{"defaults", "all", 0, 0, 0, true},
		{"every knob set", "ablation", 2, 4, 10000, true},
		{"unknown fig", "bogus", 0, 0, 0, false},
		{"empty fig", "", 0, 0, 0, false},
		{"unknown table", "all", 3, 0, 0, false},
		{"negative table", "all", -1, 0, 0, false},
		{"negative parallel", "all", 0, -4, 0, false},
		{"negative invariants", "all", 0, 0, -7, false},
	}
	for _, c := range cases {
		err := checkFlags(c.fig, c.table, c.parallel, c.invariants)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkFlags(%q, %d, %d, %d) = %v, want ok=%v",
				c.name, c.fig, c.table, c.parallel, c.invariants, err, c.ok)
		}
	}
}
