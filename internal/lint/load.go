package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Target is true for packages matched by the load patterns; false
	// for in-module dependencies pulled in only for fact computation.
	Target bool
	// Deps is the transitive dependency set as reported by go list.
	Deps []string
	// Directives maps filename -> line -> redvet directives on that line.
	Directives map[string]map[int][]Directive
	// Generated marks files with a `// Code generated ... DO NOT EDIT.`
	// header; diagnostics in them are suppressed.
	Generated map[string]bool
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Deps       []string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") from dir into fully
// type-checked packages.  It shells out to `go list -export` so that
// every dependency — standard library and in-module alike — is imported
// from compiled export data, which works offline and needs nothing
// beyond the Go toolchain.
//
// The result contains the pattern-matched packages (Target=true) plus
// every in-module dependency of them (Target=false, loaded so analyzer
// fact phases can see their bodies), in dependency order: a package
// always appears after all of its dependencies.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var wanted []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		// Keep the pattern targets and any dependency that lives in the
		// main module (analyzer facts must be computed from its source).
		if !p.DepOnly || (p.Module != nil && p.Module.Main) {
			cp := p
			wanted = append(wanted, &cp)
		}
	}

	// Dependency order: go list's Deps is transitive, so a dependency's
	// set is strictly smaller than any dependent's.  Path breaks ties
	// deterministically between unrelated packages.
	sort.Slice(wanted, func(i, j int) bool {
		if len(wanted[i].Deps) != len(wanted[j].Deps) {
			return len(wanted[i].Deps) < len(wanted[j].Deps)
		}
		return wanted[i].ImportPath < wanted[j].ImportPath
	})

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := &lockedImporter{imp: importer.ForCompiler(fset, "gc", lookup)}

	// Parse and type-check level-parallel across the dependency DAG:
	// packages in the same level share no dependency edge, so they can
	// check concurrently once every earlier level is done.  The result
	// slice is indexed by the original (dependency-sorted) position, so
	// the returned order — and everything downstream of it, including
	// fact computation and the order of the diagnostics — is identical
	// to a sequential load.
	pkgs := make([]*Package, len(wanted))
	errs := make([]error, len(wanted))
	for _, level := range dependencyLevels(wanted) {
		var wg sync.WaitGroup
		for _, i := range level {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pkgs[i], errs[i] = typecheck(fset, imp, wanted[i])
			}(i)
		}
		wg.Wait()
		// Surface the lowest-index failure of the level so repeated runs
		// over a broken tree report the same error.
		for _, i := range level {
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
	}
	return pkgs, nil
}

// dependencyLevels groups indices into wanted by dependency depth
// within the load set: level 0 packages import no other loaded
// package, level n+1 packages import at least one level-n package.
// wanted must be sorted so dependencies precede dependents (go list's
// transitive Deps guarantees a dependency has strictly fewer deps).
func dependencyLevels(wanted []*listedPackage) [][]int {
	idx := make(map[string]int, len(wanted))
	for i, w := range wanted {
		idx[w.ImportPath] = i
	}
	depth := make([]int, len(wanted))
	var levels [][]int
	for i, w := range wanted {
		d := 0
		for _, dep := range w.Deps {
			if j, ok := idx[dep]; ok && j < i && depth[j]+1 > d {
				d = depth[j] + 1
			}
		}
		depth[i] = d
		for len(levels) <= d {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], i)
	}
	return levels
}

// lockedImporter serializes Import calls: the gc export-data importer
// mutates its internal package cache and is not safe for concurrent
// use, while token.FileSet and the type-checker around it are.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

// generatedRe matches the standard generated-file marker
// (https://go.dev/s/generatedcode): a whole-line comment of the form
// `// Code generated <by what> DO NOT EDIT.` before the package clause.
var generatedRe = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// isGenerated reports whether f carries the generated-file header.
func isGenerated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

func typecheck(fset *token.FileSet, imp types.Importer, lp *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	directives := make(map[string]map[int][]Directive)
	generated := make(map[string]bool)
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		directives[path] = directiveLines(fset, f)
		if isGenerated(f) {
			generated[path] = true
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:       lp.ImportPath,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Target:     !lp.DepOnly,
		Deps:       lp.Deps,
		Directives: directives,
		Generated:  generated,
	}, nil
}
