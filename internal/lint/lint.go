// Package lint is a self-contained static-analysis framework plus the
// redvet analyzers that machine-check this repository's simulation
// invariants: deterministic map iteration, including the order of
// gathered slices that feed emitted rows and float reductions
// (detmaprange), no wall-clock or unseeded randomness in simulation
// code and no "time" import outside the command packages
// (nowallclock), cycle-typed time flow (cycleunits) and static
// zero-allocation proofs for annotated hot paths (noalloc).
// Scheduling determinism and stats ownership are guarded at run time
// instead: by the goldens, the byte-identity tests and the race job
// (DESIGN.md §7).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis but
// is built only on the standard library (go/ast, go/types and the gc
// export-data importer), so the module keeps its zero-dependency
// property.  Packages are loaded offline via `go list -export`.
//
// # Interprocedural facts
//
// Packages are analyzed in dependency order (in-module dependencies of
// the requested patterns included), and an analyzer with a Facts phase
// exports per-function facts — noalloc's "this function is
// allocation-free" — into a shared FactStore keyed by the function's
// fully-qualified name.  Dependent packages consume those facts when
// they are analyzed, so a property can be tracked across any number of
// call hops and package boundaries.  Facts live for one run; they are
// recomputed from source every time.
//
// # Directives
//
// Every analyzer honours a per-site escape hatch: a comment of the form
//
//	//redvet:<directive> — justification
//
// on the flagged line or the line above suppresses the diagnostic.  The
// directive token is analyzer-specific (ordered, wallclock, units,
// alloc) so a justification for one invariant never silences another.
// A suppression without a non-empty justification is itself a finding
// (the directive audit, analyzer name "directive").
//
// Further tokens are contract markers rather than suppressions:
//
//	//redvet:hotpath    — the function below must be statically
//	                      allocation-free (checked by noalloc)
//	//redvet:coldstart  — the function below performs sanctioned
//	                      amortized warm-up allocation (pool refill,
//	                      ring growth) and may be called from hotpath
//	                      functions; requires a justification
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "detmaprange").
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Directive is the //redvet:<token> suppression token.
	Directive string
	// Scope reports whether the analyzer applies to a package path.
	// The driver consults it; tests bypass it and run Run directly.
	Scope func(pkgPath string) bool
	// Facts, when non-nil, runs over every loaded in-module package
	// (dependencies included, in dependency order) before any Run phase,
	// computing exported facts into pass.Facts.  It must not report
	// diagnostics.
	Facts func(pass *Pass)
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Fix, when non-empty, is a mechanical suggested fix: replacement
	// code (or a template) for the flagged construct.  Rendered by the
	// driver's -fix flag and carried in -json output.
	Fix string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer phase over one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the session-wide fact store.
	Facts *FactStore

	// directives maps filename -> line -> redvet directives on that line.
	directives map[string]map[int][]Directive
	// generated marks files carrying a `// Code generated` header;
	// diagnostics in them are suppressed (the generator, not the
	// generated text, is the fixable artifact).
	generated map[string]bool

	Diagnostics []Diagnostic
}

// Reportf records a diagnostic at pos unless a matching //redvet
// directive suppresses it or the file is generated.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, "", format, args...)
}

// ReportFix is Reportf with an attached mechanical suggested fix.
func (p *Pass) ReportFix(pos token.Pos, fix, format string, args ...any) {
	p.report(pos, fix, format, args...)
}

func (p *Pass) report(pos token.Pos, fix, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.generated[position.Filename] {
		return
	}
	if p.suppressed(position) {
		return
	}
	p.Diagnostics = append(p.Diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// suppressed reports whether a //redvet:<directive> comment sits on the
// diagnostic's line or the line directly above it.
func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.directives[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range lines[line] {
			if d.Tok == p.Analyzer.Directive {
				return true
			}
		}
	}
	return false
}

// directiveAt reports whether token tok appears on any line in
// [from, to] of the file containing pos (used for function-level
// contract markers like hotpath, whose doc comment may span lines).
func (p *Pass) directiveAt(file string, from, to int, tok string) bool {
	lines := p.directives[file]
	for line := from; line <= to; line++ {
		for _, d := range lines[line] {
			if d.Tok == tok {
				return true
			}
		}
	}
	return false
}

// funcMarked reports whether decl carries the given contract marker in
// its doc comment or on the line above its declaration.
func (p *Pass) funcMarked(decl *ast.FuncDecl, tok string) bool {
	pos := p.Fset.Position(decl.Pos())
	from := pos.Line - 1
	if decl.Doc != nil {
		from = p.Fset.Position(decl.Doc.Pos()).Line
	}
	return p.directiveAt(pos.Filename, from, pos.Line, tok)
}

// Directive is one parsed //redvet:<token> comment.
type Directive struct {
	Tok  string
	Just string // justification text after the token (may be empty)
	Pos  token.Pos
}

// suppressionTokens are directive tokens that silence or sanction a
// finding and therefore require a justification.  hotpath is absent: it
// adds obligations instead of removing them.
var suppressionTokens = map[string]bool{
	"ordered": true, "wallclock": true, "units": true, "alloc": true,
	"coldstart": true,
}

// markerTokens are contract markers that add obligations instead of
// removing them; they need no justification.
var markerTokens = map[string]bool{"hotpath": true}

// directiveLines extracts redvet directives from a file's comments,
// keyed by the line the comment ends on.
func directiveLines(fset *token.FileSet, f *ast.File) map[int][]Directive {
	out := make(map[int][]Directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			// Only machine-form comments count: `//redvet:tok ...` with no
			// space, like //go: directives.  Prose that merely mentions a
			// directive ("annotate //redvet:units") is ignored.
			rest, ok := strings.CutPrefix(c.Text, "//redvet:")
			if !ok {
				continue
			}
			tok := rest
			just := ""
			if cut := strings.IndexAny(rest, " \t—-"); cut >= 0 {
				tok = rest[:cut]
				just = strings.TrimLeft(rest[cut:], " \t—-")
			}
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			line := fset.Position(c.End()).Line
			out[line] = append(out[line], Directive{
				Tok:  tok,
				Just: strings.TrimSpace(just),
				Pos:  c.Pos(),
			})
		}
	}
	return out
}

func newPass(a *Analyzer, pkg *Package, facts *FactStore) *Pass {
	return &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
		Facts:      facts,
		directives: pkg.Directives,
		generated:  pkg.Generated,
	}
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Session runs a suite of analyzers over a load result: fact phases in
// dependency order over every in-module package, then Run phases over
// the target (pattern-matched) packages, then the directive audit.  The
// returned diagnostics are globally sorted by position.
type Session struct {
	Packages []*Package // dependency order (dependencies first)
	Facts    *FactStore
	// IgnoreScope runs every analyzer on every target package regardless
	// of its Scope policy.  Fixture tests use it: testdata package paths
	// fall outside the scopes the production driver applies.
	IgnoreScope bool
}

// ProofStats counts statically discharged proof obligations across one
// session: the //redvet:hotpath annotations whose allocation-freedom
// noalloc proves.
type ProofStats struct {
	Hotpath int
}

func (ps ProofStats) String() string {
	return fmt.Sprintf("hotpath=%d", ps.Hotpath)
}

// ProofStats returns the session's proof-obligation counts, summed over
// every loaded in-module package's facts.  Call after Run.
func (s *Session) ProofStats() ProofStats {
	var ps ProofStats
	for _, pkg := range s.Packages {
		ps.Hotpath += len(s.Facts.HotpathFuncs(pkg.Path))
	}
	return ps
}

// NewSession wraps a Load result (already in dependency order).
func NewSession(pkgs []*Package) *Session {
	return &Session{Packages: pkgs, Facts: NewFactStore()}
}

// Run executes the suite and returns all findings, sorted by position.
func (s *Session) Run(analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range s.Packages {
		// Fact phase: every in-module package, scoped or not — a hot
		// path in scope may call through an out-of-scope helper package.
		for _, a := range analyzers {
			if a.Facts != nil {
				a.Facts(newPass(a, pkg, s.Facts))
			}
		}
	}
	for _, pkg := range s.Packages {
		if !pkg.Target {
			continue
		}
		for _, a := range analyzers {
			if !s.IgnoreScope && !a.Scope(pkg.Path) {
				continue
			}
			pass := newPass(a, pkg, s.Facts)
			a.Run(pass)
			out = append(out, pass.Diagnostics...)
		}
		out = append(out, auditDirectives(pkg)...)
	}
	sortDiagnostics(out)
	return out
}

// auditDirectives enforces the justification contract: every suppression
// directive must carry a non-empty justification, and coldstart (which
// sanctions allocation) is audited the same way.  Unknown tokens are
// flagged too — a typo like //redvet:orderd would otherwise silently
// fail to suppress.
func auditDirectives(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for file, lines := range pkg.Directives {
		if pkg.Generated[file] {
			continue
		}
		for _, ds := range lines {
			for _, d := range ds {
				switch {
				case !markerTokens[d.Tok] && !suppressionTokens[d.Tok]:
					out = append(out, Diagnostic{
						Analyzer: "directive",
						Pos:      pkg.Fset.Position(d.Pos),
						Message:  fmt.Sprintf("unknown redvet directive %q (known: %s)", d.Tok, knownTokens()),
					})
				case suppressionTokens[d.Tok] && d.Just == "":
					out = append(out, Diagnostic{
						Analyzer: "directive",
						Pos:      pkg.Fset.Position(d.Pos),
						Message:  fmt.Sprintf("//redvet:%s needs a justification on the same line (e.g. //redvet:%s — why this is safe)", d.Tok, d.Tok),
					})
				}
			}
		}
	}
	return out
}

// knownTokens lists every directive token, sorted, for the unknown-token
// message; built from the token maps so the two cannot drift.
func knownTokens() string {
	var toks []string
	for tok := range markerTokens {
		toks = append(toks, tok)
	}
	for tok := range suppressionTokens {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	return strings.Join(toks, ", ")
}

// All returns the full redvet analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{DetMapRange, NoWallClock, CycleUnits, NoAlloc}
}

// inspect walks every file in the pass with fn, tracking the stack of
// enclosing nodes.  fn returns false to prune the subtree.
func inspect(pass *Pass, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// unparen strips any parentheses around e.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// staticCallee resolves call to a concrete *types.Func, or nil for
// dynamic calls (func values, interface methods), builtins and
// conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified reference: pkg.Func.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// basicKind returns the basic kind of t's core type, or types.Invalid.
func basicKind(t types.Type) types.BasicKind {
	if t == nil {
		return types.Invalid
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind()
	}
	return types.Invalid
}

// isIntegerType reports whether t is any integer type.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
