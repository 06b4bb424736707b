package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadSkipsTestdataPackages pins the go-tool convention the whole
// suite relies on: `./...` never descends into testdata directories, so
// fixture packages can contain deliberate violations without tripping
// the repo-wide gate.
func TestLoadSkipsTestdataPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole repo")
	}
	pkgs, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("Load(./...) returned fixture package %s", pkg.Path)
		}
	}
}

// TestLoadMarksGeneratedFiles checks both halves of the generated-file
// contract: the loader flags the file, and diagnostics inside it are
// suppressed (the fixture contains an unmistakable detmaprange
// violation).
func TestLoadMarksGeneratedFiles(t *testing.T) {
	pkgs, err := Load("../..", "./internal/lint/testdata/src/generated")
	if err != nil {
		t.Fatal(err)
	}
	var target *Package
	for _, pkg := range pkgs {
		if pkg.Target {
			target = pkg
		}
	}
	if target == nil {
		t.Fatal("fixture package not loaded")
	}
	marked := false
	for file, gen := range target.Generated {
		if filepath.Base(file) == "gen.go" && gen {
			marked = true
		}
	}
	if !marked {
		t.Fatalf("gen.go not marked generated; got %v", target.Generated)
	}

	session := NewSession(pkgs)
	session.IgnoreScope = true
	if diags := session.Run([]*Analyzer{DetMapRange}); len(diags) != 0 {
		t.Fatalf("diagnostics reported in a generated file: %v", diags)
	}
}

// TestLoadHonorsBuildTags checks that files excluded by build
// constraints are not parsed: the fixture's skip.go (tagged
// redvet_fixture_skip) holds a wall-clock call that must stay
// invisible.
func TestLoadHonorsBuildTags(t *testing.T) {
	pkgs, err := Load("../..", "./internal/lint/testdata/src/buildtags")
	if err != nil {
		t.Fatal(err)
	}
	var target *Package
	for _, pkg := range pkgs {
		if pkg.Target {
			target = pkg
		}
	}
	if target == nil {
		t.Fatal("fixture package not loaded")
	}
	if len(target.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (skip.go is build-tag excluded)", len(target.Files))
	}
	name := filepath.Base(target.Fset.Position(target.Files[0].Pos()).Filename)
	if name != "keep.go" {
		t.Fatalf("loaded %s, want keep.go", name)
	}

	session := NewSession(pkgs)
	session.IgnoreScope = true
	if diags := session.Run([]*Analyzer{NoWallClock}); len(diags) != 0 {
		t.Fatalf("diagnostics from a build-tag-excluded file: %v", diags)
	}
}

// TestDependencyLevels pins the level partition the parallel loader
// runs on: a package lands one level above its deepest loaded
// dependency, unrelated packages share level 0, and the flattened
// levels cover every index exactly once.
func TestDependencyLevels(t *testing.T) {
	wanted := []*listedPackage{
		{ImportPath: "m/a", Deps: []string{"fmt"}},
		{ImportPath: "m/b", Deps: []string{"fmt", "io", "os"}},
		{ImportPath: "m/c", Deps: []string{"fmt", "io", "os", "sort", "m/a"}},
		{ImportPath: "m/d", Deps: []string{"fmt", "io", "os", "sort", "strings", "m/a", "m/c"}},
	}
	levels := dependencyLevels(wanted)
	want := [][]int{{0, 1}, {2}, {3}}
	if len(levels) != len(want) {
		t.Fatalf("got %d levels %v, want %v", len(levels), levels, want)
	}
	for i := range want {
		if len(levels[i]) != len(want[i]) {
			t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
		}
		for j := range want[i] {
			if levels[i][j] != want[i][j] {
				t.Fatalf("level %d = %v, want %v", i, levels[i], want[i])
			}
		}
	}
}

// TestLoadDeterministicOrder checks that the level-parallel loader
// returns byte-identical package sequences across runs — the property
// that keeps fact computation, and so the diagnostics, stable.
func TestLoadDeterministicOrder(t *testing.T) {
	order := func() []string {
		pkgs, err := Load("../..", "./internal/lint/testdata/src/detsched",
			"./internal/lint/testdata/src/fporder")
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, pkg := range pkgs {
			paths = append(paths, pkg.Path)
		}
		return paths
	}
	first := order()
	for run := 0; run < 2; run++ {
		if got := order(); strings.Join(got, " ") != strings.Join(first, " ") {
			t.Fatalf("run %d order %v, want %v", run+1, got, first)
		}
	}
}

// TestLoadDependencyOrder checks that in-module dependencies of a
// pattern target are loaded (Target=false) and sorted before their
// dependents, which the fact phases rely on.
func TestLoadDependencyOrder(t *testing.T) {
	pkgs, err := Load("../..", "./internal/lint/testdata/src/detsched")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, pkg := range pkgs {
		seen[pkg.Path] = i
	}
	for _, pkg := range pkgs {
		for _, dep := range pkg.Deps {
			if j, ok := seen[dep]; ok && j > seen[pkg.Path] {
				t.Errorf("dependency %s sorted after dependent %s", dep, pkg.Path)
			}
		}
	}
	const (
		target = "redcache/internal/lint/testdata/src/detsched"
		dep    = "redcache/internal/lint/testdata/src/detsched/detutil"
	)
	ti, ok := seen[target]
	if !ok {
		t.Fatalf("target %s not loaded", target)
	}
	di, ok := seen[dep]
	if !ok {
		t.Fatalf("in-module dependency %s not loaded", dep)
	}
	if di > ti {
		t.Errorf("dependency %s (index %d) sorted after target (index %d)", dep, di, ti)
	}
	for _, pkg := range pkgs {
		if pkg.Path == dep && pkg.Target {
			t.Errorf("dependency %s marked Target", dep)
		}
		if pkg.Path == target && !pkg.Target {
			t.Errorf("target %s not marked Target", target)
		}
	}
}
