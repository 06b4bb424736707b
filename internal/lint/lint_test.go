package lint

import (
	"bufio"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation pattern from a `// want `+"`re`"+“ comment.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// runFixture loads one testdata package, runs the analyzer through a
// Session (so cross-package facts from the fixture's in-module
// dependencies are available), and checks its diagnostics against the
// fixture's `// want` comments — the same contract as golang.org/x/
// tools' analysistest, reimplemented on the standard library.
func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkgs, err := Load("../..", "./internal/lint/testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no packages loaded", fixture)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		for _, f := range pkg.Files {
			wants = append(wants, fileExpectations(t, pkg.Fset.Position(f.Pos()).Filename)...)
		}
	}

	session := NewSession(pkgs)
	session.IgnoreScope = true // testdata paths fall outside production scopes
	diags := session.Run([]*Analyzer{a})

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func fileExpectations(t *testing.T, path string) []*expectation {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []*expectation
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		m := wantRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		out = append(out, &expectation{file: path, line: line, re: regexp.MustCompile(m[1])})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDetMapRange(t *testing.T) { runFixture(t, DetMapRange, "detmaprange") }
func TestNoWallClock(t *testing.T) { runFixture(t, NoWallClock, "nowallclock") }
func TestCycleUnits(t *testing.T)  { runFixture(t, CycleUnits, "cycleunits") }
func TestStatsPath(t *testing.T)   { runFixture(t, StatsPath, "statspath") }
func TestNoAlloc(t *testing.T)     { runFixture(t, NoAlloc, "noalloc") }
func TestDetSched(t *testing.T)    { runFixture(t, DetSched, "detsched") }
func TestFPOrder(t *testing.T)     { runFixture(t, FPOrder, "fporder") }

// TestRepoIsClean runs the full suite over the whole repository — the
// same gate CI applies with `go run ./cmd/redvet ./...` — so a lint
// regression fails tier-1 tests even without the CI wiring.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole repo")
	}
	pkgs, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags := NewSession(pkgs).Run(All())
	var failures []string
	for _, d := range diags {
		failures = append(failures, d.String())
	}
	if len(failures) > 0 {
		t.Fatalf("redvet found %d violation(s):\n%s",
			len(failures), strings.Join(failures, "\n"))
	}
}

// TestDirectiveScoping checks that a directive for one analyzer never
// silences another: the suppression token must match exactly.
func TestDirectiveScoping(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Directive == "" || a.Doc == "" || a.Scope == nil || a.Run == nil {
			t.Fatalf("analyzer %+v incompletely defined", a)
		}
		if seen[a.Directive] {
			t.Fatalf("directive %q reused by %s", a.Directive, a.Name)
		}
		seen[a.Directive] = true
	}
}

// TestScopes pins the package-scope policy for each analyzer.
func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{DetMapRange, "redcache/internal/stats", true},
		{DetMapRange, "redcache/cmd/redbench", true},
		{DetMapRange, "redcache/internal/lint", false},
		{NoWallClock, "redcache/internal/engine", true},
		{NoWallClock, "redcache/cmd/redsim", true},
		{NoWallClock, "redcache/internal/lint", false},
		{NoWallClock, "redcache/internal/lint/testdata/src/nowallclock", true},
		{NoWallClock, "redcache/examples/quickstart", true},
		{CycleUnits, "redcache/internal/dram", true},
		{CycleUnits, "redcache/internal/config", false},
		{CycleUnits, "redcache/internal/workloads", false},
		{CycleUnits, "redcache/cmd/redbench", false},
		{StatsPath, "redcache/internal/experiments", true},
		{StatsPath, "redcache/cmd/redbench", false},
		{StatsPath, "redcache/internal/lint", false},
		{NoAlloc, "redcache/internal/engine", true},
		{NoAlloc, "redcache/internal/lint", true},
		{DetSched, "redcache/internal/engine", true},
		{DetSched, "redcache/internal/experiments", true},
		{DetSched, "redcache/cmd/redbench", false},
		{DetSched, "redcache/internal/lint", false},
		{DetSched, "redcache/internal/lint/testdata/src/detsched", true},
		{FPOrder, "redcache/internal/stats", true},
		{FPOrder, "redcache/internal/experiments", true},
		{FPOrder, "redcache/internal/lint", false},
		{FPOrder, "redcache/internal/lint/testdata/src/fporder", true},
	}
	for _, c := range cases {
		if got := c.analyzer.Scope(c.path); got != c.want {
			t.Errorf("%s.Scope(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
}

// TestDirectiveAudit checks the justification contract on a synthetic
// package: unknown tokens and bare suppression tokens are findings,
// justified suppressions and contract markers are not.
func TestDirectiveAudit(t *testing.T) {
	src := `package p

//redvet:orderd — typo'd token
//redvet:wallclock
//redvet:units — properly justified
//redvet:hotpath
func f() {}

//redvet:hotpth — typo'd marker
//redvet:detsafe
//redvet:fporder — v3 suppression, properly justified
//redvet:detsafe — v3 suppression, properly justified
type q struct{}

//redvet:fporder
//redvet:ordered
//redvet:fporder — second suppression, properly justified
//redvet:ordered — second suppression, properly justified
func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{
		Path:       "synthetic/p",
		Fset:       fset,
		Directives: map[string]map[int][]Directive{"p.go": directiveLines(fset, f)},
		Generated:  map[string]bool{},
	}
	ds := auditDirectives(pkg)
	sortDiagnostics(ds)
	want := []string{
		`unknown redvet directive "orderd" (known: alloc, coldstart, detsafe, fporder, hotpath, ordered, statshook, units, wallclock)`,
		"//redvet:wallclock needs a justification",
		`unknown redvet directive "hotpth"`,
		"//redvet:detsafe needs a justification",
		"//redvet:fporder needs a justification",
		"//redvet:ordered needs a justification",
	}
	if len(ds) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(ds), len(want), ds)
	}
	for i, w := range want {
		if !strings.Contains(ds[i].Message, w) {
			t.Errorf("finding %d = %q, want %q", i, ds[i].Message, w)
		}
	}
}

// TestDiagnosticString pins the file:line: [analyzer] rendering the CI
// log consumers rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "detmaprange", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got, want := d.String(), fmt.Sprintf("x.go:3:7: [detmaprange] boom"); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
