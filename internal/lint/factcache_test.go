package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestFactCacheRoundTrip saves one session's facts and checks a second
// session imports them (sealing the packages so fact phases are
// skipped) and reaches identical diagnostics.
func TestFactCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	load := func() []*Package {
		pkgs, err := Load("../..", "./internal/lint/testdata/src/unitflow")
		if err != nil {
			t.Fatal(err)
		}
		return pkgs
	}

	first := NewSession(load())
	first.IgnoreScope = true
	want := first.Run([]*Analyzer{UnitFlow})
	if len(want) == 0 {
		t.Fatal("fixture produced no diagnostics; the round trip proves nothing")
	}
	if err := first.SaveFactCache(dir); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("SaveFactCache wrote no files")
	}
	for _, f := range files {
		if filepath.Ext(f.Name()) != ".json" {
			t.Errorf("unexpected cache file %s", f.Name())
		}
	}

	second := NewSession(load())
	second.IgnoreScope = true
	second.LoadFactCache(dir)
	for _, pkg := range second.Packages {
		if pkg.Export != "" && !second.Facts.HasPackage(pkg.Path) {
			t.Errorf("package %s not imported from the fact cache", pkg.Path)
		}
	}
	got := second.Run([]*Analyzer{UnitFlow})
	if len(got) != len(want) {
		t.Fatalf("cached run: %d diagnostics, fresh run: %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Errorf("diagnostic %d differs:\ncached: %s\nfresh:  %s", i, got[i], want[i])
		}
	}
}

// TestFactCacheRoundTripV4 repeats the round trip for the v4 proof
// analyzers, whose cross-package facts (FoldCovers, WallRet and
// WallSinkParam) must survive serialization:
// each fixture's diagnostics depend on facts computed in its util
// subpackage, so a fact dropped by the cache shows up as a diagnostic
// diff between the fresh and the cached run.
func TestFactCacheRoundTripV4(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
		util     string
	}{
		{StateFold, "statefold", "foldutil"},
		{WallFlow, "wallflow", "wallutil"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			dir := t.TempDir()
			load := func() []*Package {
				pkgs, err := Load("../..", "./internal/lint/testdata/src/"+c.fixture)
				if err != nil {
					t.Fatal(err)
				}
				return pkgs
			}
			first := NewSession(load())
			first.IgnoreScope = true
			want := first.Run([]*Analyzer{c.analyzer})
			if len(want) == 0 {
				t.Fatal("fixture produced no diagnostics; the round trip proves nothing")
			}
			if err := first.SaveFactCache(dir); err != nil {
				t.Fatal(err)
			}
			second := NewSession(load())
			second.IgnoreScope = true
			second.LoadFactCache(dir)
			util := "redcache/internal/lint/testdata/src/" + c.fixture + "/" + c.util
			if !second.Facts.HasPackage(util) {
				t.Errorf("util package %s not imported from the fact cache", util)
			}
			got := second.Run([]*Analyzer{c.analyzer})
			if len(got) != len(want) {
				t.Fatalf("cached run: %d diagnostics, fresh run: %d", len(got), len(want))
			}
			for i := range got {
				if got[i].String() != want[i].String() {
					t.Errorf("diagnostic %d differs:\ncached: %s\nfresh:  %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestFactCacheKeyInvalidation pins the cache-key contract the v4
// facts rely on: the key changes when the package's own export data or
// any in-module dependency's export data changes (so edited sources can
// never resurrect stale FoldCovers/Wall facts), and packages
// without export data are never keyed.
func TestFactCacheKeyInvalidation(t *testing.T) {
	dep := &Package{Path: "redcache/internal/config", Export: "/gocache/aa"}
	pkg := &Package{Path: "redcache/internal/dram", Export: "/gocache/bb", Deps: []string{dep.Path}}
	byPath := map[string]*Package{dep.Path: dep, pkg.Path: pkg}

	base := factCacheKey(pkg, byPath)
	if base == "" {
		t.Fatal("keyable package produced an empty cache key")
	}
	if again := factCacheKey(pkg, byPath); again != base {
		t.Errorf("cache key not deterministic: %s vs %s", base, again)
	}

	changed := *pkg
	changed.Export = "/gocache/bb-rebuilt"
	if factCacheKey(&changed, byPath) == base {
		t.Error("cache key unchanged after the package's own export data changed")
	}

	depChanged := *dep
	depChanged.Export = "/gocache/aa-rebuilt"
	if factCacheKey(pkg, map[string]*Package{dep.Path: &depChanged, pkg.Path: pkg}) == base {
		t.Error("cache key unchanged after a dependency's export data changed")
	}

	exportless := *pkg
	exportless.Export = ""
	if factCacheKey(&exportless, byPath) != "" {
		t.Error("package without export data must not be keyed")
	}
}
