package main

import (
	"io"
	"reflect"
	"testing"

	"redcache/internal/hbm"
	"redcache/internal/sim"
	"redcache/internal/trace"
)

// numericLeaves returns every settable integer or float field under v.
func numericLeaves(v reflect.Value, path string, out map[string]reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			numericLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Int, reflect.Int64, reflect.Uint8, reflect.Uint64, reflect.Float64:
		out[path] = v
	}
}

// digestedLeaves lists the Result fields the digest promises to cover.
func digestedLeaves(r *sim.Result) map[string]reflect.Value {
	out := map[string]reflect.Value{}
	rv := reflect.ValueOf(r).Elem()
	for _, f := range []string{"Cycles", "Instructions", "HBMIface", "DDRIface", "Ctl", "L3", "Energy"} {
		numericLeaves(rv.FieldByName(f), f, out)
	}
	return out
}

func TestDigestCoversEveryCounter(t *testing.T) {
	r := &sim.Result{Arch: hbm.ArchRedCache, Workload: "LU"}
	leaves := digestedLeaves(r)
	if len(leaves) < 40 {
		t.Fatalf("found only %d digested fields", len(leaves))
	}
	base := digest(r)
	for path, v := range leaves {
		old := reflect.ValueOf(v.Interface())
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(v.Float() + 1e-9)
		case reflect.Uint8, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		default:
			v.SetInt(v.Int() + 1)
		}
		if digest(r) == base {
			t.Errorf("changing %s leaves the digest unchanged", path)
		}
		v.Set(old)
	}
	if digest(r) != base {
		t.Fatal("digest changed after restoring every field")
	}
	// Fields outside the simulated outcome do not enter the digest.
	r.EventsFired++
	if digest(r) != base {
		t.Error("events fired changed the digest")
	}
}

func TestLedger(t *testing.T) {
	tr := &trace.Trace{Name: "LU", Streams: []trace.Stream{{{Gap: 2}, {Gap: 0, Write: true}}}}
	want := map[string]int64{"LU": instructions(tr)}
	if want["LU"] != 4 {
		t.Fatalf("instructions = %d, want 4", want["LU"])
	}
	l := newLedger([]runConfig{{"LU", hbm.ArchRedCache}}, want, io.Discard)
	ok := &sim.Result{Cycles: 10, Instructions: 4}
	l.record(0, ok, nil)
	l.record(0, ok, nil)
	if l.attempted != 2 || l.failed != 0 || l.workloadDigest() == "" {
		t.Fatalf("two identical runs: attempted %d failed %d digest %q", l.attempted, l.failed, l.workloadDigest())
	}
	diverged := *ok
	diverged.DDRIface.Requests = 1
	l.record(0, &diverged, nil)
	short := *ok
	short.Instructions = 3
	l.record(0, &short, nil)
	l.record(0, nil, io.ErrUnexpectedEOF)
	if l.attempted != 5 || l.failed != 3 {
		t.Errorf("after a diverging, a short and an erroring run: attempted %d failed %d, want 5 and 3", l.attempted, l.failed)
	}
}

func TestPaperSweepRunsEveryArchitecture(t *testing.T) {
	w, ok := workloadByName("paper-sweep")
	if !ok {
		t.Fatal("no paper-sweep workload")
	}
	cs := w.configs()
	if len(cs) != 99 {
		t.Errorf("paper-sweep has %d configs, want 11 workloads x 9 architectures", len(cs))
	}
	// Fig 9 and Fig 2a together run every architecture, so the Suite
	// memoizes every config the ledger reads back.
	covered := map[hbm.Arch]bool{hbm.ArchNoHBM: true, hbm.ArchIdeal: true}
	for _, a := range hbm.Figure9Archs() {
		covered[a] = true
	}
	for _, a := range hbm.All() {
		if !covered[a] {
			t.Errorf("architecture %s is in no figure the sweep runs", a)
		}
	}
}
