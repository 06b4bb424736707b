package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// NoAlloc statically proves functions annotated //redvet:hotpath
// allocation-free.  It flags every potential allocation site in the
// function body — make/new, append (which may grow), composite literals
// that escape, capturing closures, interface boxing, string
// conversions/concatenation, map writes, go/defer, variadic argument
// slices — and transitively checks every statically-resolved callee via
// per-function facts, so a regression three calls deep in another
// package is still caught at the annotated entry point.
//
// The proof covers what the compiler must allocate for the function's
// own code.  Two escape valves keep it usable on real hot paths:
//
//   - //redvet:coldstart functions (pool refills, ring growth) allocate
//     by design and are callable from hot paths; the runtime
//     AllocsPerRun guards warm pools up before asserting, and the
//     static proof mirrors that amortized contract.
//   - Dynamic calls — through stored func values or interface methods —
//     are component boundaries the analyzer cannot resolve; the
//     concrete implementations carry their own hotpath annotations.
//     Only the address of a local passed through one is flagged, since
//     escape analysis must move that local to the heap.
//
// Allocations whose only purpose is to build a panic message are
// exempt: a panicking simulation is already past caring about the
// steady-state allocation budget.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "check that //redvet:hotpath functions are statically allocation-free, " +
		"transitively through statically-resolved callees via exported facts",
	Directive: "alloc",
	Scope:     func(string) bool { return true },
	Facts:     noallocFacts,
	Run:       noallocRun,
}

// allocSite is one potential heap allocation in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// calleeRef is one statically-resolved call out of a function body.
type calleeRef struct {
	pos token.Pos
	fn  *types.Func
}

// allocPurePkgs are stdlib packages whose functions never allocate.
var allocPurePkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// pointerShaped reports whether boxing a value of type t into an
// interface needs no heap allocation (the value fits the interface's
// data word directly).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

// boxes reports whether assigning src (with type srcT) to a destination
// of type dst is an allocating interface conversion.
func boxes(dst types.Type, srcT types.Type, srcIsNil bool) bool {
	if dst == nil || srcT == nil || srcIsNil {
		return false
	}
	if !types.IsInterface(dst) || types.IsInterface(srcT) {
		return false
	}
	return !pointerShaped(srcT)
}

// allocScanner walks one function body collecting allocation sites and
// static callees.  Nested function literals are scanned as part of the
// enclosing body (their code runs with the closure), and a literal that
// captures variables is itself an allocation site.
type allocScanner struct {
	info    *types.Info
	fset    *token.FileSet
	sites   []allocSite
	callees []calleeRef
}

func (s *allocScanner) site(pos token.Pos, format string, args ...any) {
	s.sites = append(s.sites, allocSite{pos: pos, what: fmt.Sprintf(format, args...)})
}

func (s *allocScanner) isNil(e ast.Expr) bool {
	tv, ok := s.info.Types[e]
	return ok && tv.IsNil()
}

func (s *allocScanner) typeOf(e ast.Expr) types.Type { return s.info.TypeOf(e) }

// scan analyzes body; outer is the full span of the enclosing function
// declaration (used for closure-capture detection).
func (s *allocScanner) scan(body *ast.BlockStmt, outer ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return s.call(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					s.site(n.Pos(), "composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			switch s.typeOf(n).Underlying().(type) {
			case *types.Slice:
				s.site(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				s.site(n.Pos(), "map literal allocates")
			}
		case *ast.FuncLit:
			if capt := s.captures(n, outer); capt != "" {
				s.site(n.Pos(), "closure allocates: captures %s", capt)
			}
			// The literal's body still runs on the hot path: keep walking.
		case *ast.BinaryExpr:
			if n.Op == token.ADD && basicKind(s.typeOf(n)) == types.String {
				if tv, ok := s.info.Types[n]; !ok || tv.Value == nil {
					s.site(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			s.assign(n)
		case *ast.IncDecStmt:
			if idx, ok := unparen(n.X).(*ast.IndexExpr); ok {
				if _, ok := s.typeOf(idx.X).Underlying().(*types.Map); ok {
					s.site(n.Pos(), "map update may allocate (rehash/new bucket)")
				}
			}
		case *ast.SendStmt:
			if ch, ok := s.typeOf(n.Chan).Underlying().(*types.Chan); ok {
				if boxes(ch.Elem(), s.typeOf(n.Value), s.isNil(n.Value)) {
					s.site(n.Pos(), "channel send boxes %s into %s", s.typeOf(n.Value), ch.Elem())
				}
			}
		case *ast.GoStmt:
			s.site(n.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			s.site(n.Pos(), "defer allocates its frame record")
		}
		return true
	})
}

// call handles one call expression: builtins, conversions, variadic
// slices, argument boxing, and static callee collection.  Returns false
// to prune the subtree (panic arguments are exempt).
func (s *allocScanner) call(call *ast.CallExpr) bool {
	// Type conversion?
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() {
		dst := tv.Type
		src := s.typeOf(call.Args[0])
		s.conversion(call, dst, src)
		return true
	}
	// Builtin?
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.site(call.Pos(), "make allocates")
			case "new":
				s.site(call.Pos(), "new allocates")
			case "append":
				s.site(call.Pos(), "append may grow its backing array; use a reslice-push with explicit cold-start growth")
			case "panic":
				return false // allocations building a panic value are exempt
			}
			return true
		}
	}
	sig, _ := s.typeOf(call.Fun).(*types.Signature)
	if sig != nil {
		if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= sig.Params().Len() {
			s.site(call.Pos(), "variadic call allocates its argument slice")
		}
		// Interface boxing of arguments.
		for i, arg := range call.Args {
			pi := i
			if pi >= sig.Params().Len() {
				pi = sig.Params().Len() - 1
			}
			pt := sig.Params().At(pi).Type()
			if sig.Variadic() && pi == sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
				if sl, ok := pt.Underlying().(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
			if boxes(pt, s.typeOf(arg), s.isNil(arg)) {
				s.site(arg.Pos(), "argument boxes %s into %s", s.typeOf(arg), pt)
			}
		}
	}
	fn := staticCallee(s.info, call)
	if fn == nil {
		for _, arg := range call.Args {
			if v := s.addrOfLocal(arg); v != nil {
				s.site(arg.Pos(), "address of local %s escapes through a dynamic call", v.Name())
			}
		}
		return true
	}
	if fn.Pkg() == nil || allocPurePkgs[fn.Pkg().Path()] {
		return true
	}
	s.callees = append(s.callees, calleeRef{pos: call.Pos(), fn: fn})
	return true
}

// addrOfLocal returns x when e is &x for a function-local variable x,
// or nil.
func (s *allocScanner) addrOfLocal(e ast.Expr) *types.Var {
	u, ok := unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	id, ok := unparen(u.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := s.info.Uses[id].(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent().Parent() == types.Universe {
		return nil
	}
	return v
}

// conversion flags allocating type conversions.
func (s *allocScanner) conversion(call *ast.CallExpr, dst, src types.Type) {
	if src == nil {
		return
	}
	dk, sk := basicKind(dst), basicKind(src)
	switch {
	case dk == types.String && sk != types.String && sk != types.UntypedString:
		if tv, ok := s.info.Types[call]; !ok || tv.Value == nil {
			s.site(call.Pos(), "conversion to string allocates")
		}
	case sk == types.String || sk == types.UntypedString:
		if sl, ok := dst.Underlying().(*types.Slice); ok {
			s.site(call.Pos(), "string to %s conversion allocates", sl)
		}
	case boxes(dst, src, s.isNil(call.Args[0])):
		s.site(call.Pos(), "conversion boxes %s into %s", src, dst)
	}
}

// assign flags map writes and interface-boxing assignments.
func (s *allocScanner) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		if idx, ok := unparen(lhs).(*ast.IndexExpr); ok {
			if _, ok := s.typeOf(idx.X).Underlying().(*types.Map); ok {
				s.site(lhs.Pos(), "map write may allocate (rehash/new key)")
			}
		}
	}
	if len(n.Lhs) == len(n.Rhs) && n.Tok != token.DEFINE {
		for i, lhs := range n.Lhs {
			if boxes(s.typeOf(lhs), s.typeOf(n.Rhs[i]), s.isNil(n.Rhs[i])) {
				s.site(n.Rhs[i].Pos(), "assignment boxes %s into %s", s.typeOf(n.Rhs[i]), s.typeOf(lhs))
			}
		}
	}
}

// captures names the first variable a func literal captures from its
// enclosing function, or "" if it captures nothing.
func (s *allocScanner) captures(lit *ast.FuncLit, outer ast.Node) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := s.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captured.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		// Declared outside the literal but inside the enclosing function
		// (receiver and parameters included) → capture.
		if v.Pos() < lit.Pos() && v.Pos() >= outer.Pos() && v.Pos() < outer.End() {
			found = v.Name()
			return false
		}
		return true
	})
	return found
}

// scanFunc runs the alloc scan over one declaration, adding
// return-boxing checks that need the signature.
func scanFunc(pass *Pass, decl *ast.FuncDecl) ([]allocSite, []calleeRef) {
	sc := &allocScanner{info: pass.Info, fset: pass.Fset}
	if decl.Body == nil {
		return nil, nil
	}
	sc.scan(decl.Body, decl)
	if fn, ok := pass.Info.Defs[decl.Name].(*types.Func); ok {
		sig := fn.Type().(*types.Signature)
		res := sig.Results()
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // nested literal returns its own results
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != res.Len() {
				return true
			}
			for i, e := range ret.Results {
				if boxes(res.At(i).Type(), sc.typeOf(e), sc.isNil(e)) {
					sc.site(e.Pos(), "return boxes %s into %s", sc.typeOf(e), res.At(i).Type())
				}
			}
			return true
		})
	}
	return sc.sites, sc.callees
}

// funcDecls yields every function declaration with its types.Func.
func funcDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.Info.Defs[decl.Name].(*types.Func); ok {
				out[fn] = decl
			}
		}
	}
	return out
}

// noallocFacts computes each function's AllocClass and stores it.
func noallocFacts(pass *Pass) {
	facts := pass.Facts
	decls := funcDecls(pass)

	locals := make(map[*types.Func]*allocLocal)
	for fn, decl := range decls {
		ff := &FuncFacts{Hotpath: pass.funcMarked(decl, "hotpath")}
		sites, callees := scanFunc(pass, decl)
		switch {
		case pass.funcMarked(decl, "coldstart"):
			ff.Alloc = AllocCold
		case decl.Body == nil:
			ff.Alloc = AllocUnknown
			ff.AllocVia = "no body (assembly or external linkage)"
		default:
			ff.Alloc = AllocFree
			for _, site := range sites {
				if !pass.suppressed(pass.Fset.Position(site.pos)) {
					ff.Alloc = Allocates
					ff.AllocVia = site.what
					break
				}
			}
		}
		locals[fn] = &allocLocal{ff: ff, callees: callees}
	}

	// Optimistic fixpoint: demote AllocFree functions whose callees
	// allocate.  Cross-package callees resolve through the fact store
	// (their packages were analyzed earlier in dependency order).
	for changed := true; changed; {
		changed = false
		for _, l := range locals {
			if l.ff.Alloc != AllocFree {
				continue
			}
			for _, c := range l.callees {
				cls, via := calleeClass(facts, locals, c.fn)
				if cls == Allocates || cls == AllocUnknown {
					l.ff.Alloc = Allocates
					l.ff.AllocVia = fmt.Sprintf("calls %s (%s)", FuncKey(c.fn), via)
					changed = true
					break
				}
			}
		}
	}

	for fn, l := range locals {
		ff := facts.EnsureFunc(fn)
		ff.Alloc = l.ff.Alloc
		ff.AllocVia = l.ff.AllocVia
		ff.Hotpath = l.ff.Hotpath
	}
}

// allocLocal is one function's in-flight state during the fixpoint.
type allocLocal struct {
	ff      *FuncFacts
	callees []calleeRef
}

// calleeClass resolves a callee's AllocClass, preferring in-flight
// same-package results, then the cross-package fact store.
func calleeClass(facts *FactStore, locals map[*types.Func]*allocLocal, fn *types.Func) (AllocClass, string) {
	if l, ok := locals[fn]; ok {
		return l.ff.Alloc, l.ff.AllocVia
	}
	if ff := facts.Func(fn); ff != nil {
		return ff.Alloc, ff.AllocVia
	}
	return AllocUnknown, "no facts for its package"
}

// noallocRun reports sites and allocating callees inside every
// //redvet:hotpath function of the target package.
func noallocRun(pass *Pass) {
	facts := pass.Facts
	decls := funcDecls(pass)

	// Deterministic order: sort by position.
	fns := make([]*types.Func, 0, len(decls))
	for fn := range decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return decls[fns[i]].Pos() < decls[fns[j]].Pos() })

	for _, fn := range fns {
		decl := decls[fn]
		if !pass.funcMarked(decl, "hotpath") {
			continue
		}
		if pass.funcMarked(decl, "coldstart") {
			pass.Reportf(decl.Pos(), "%s is marked both hotpath and coldstart; pick one", fn.Name())
			continue
		}
		if decl.Body == nil {
			pass.Reportf(decl.Pos(), "hotpath function %s has no body to prove allocation-free", fn.Name())
			continue
		}
		sites, callees := scanFunc(pass, decl)
		for _, site := range sites {
			pass.Reportf(site.pos, "allocation on hot path %s: %s", fn.Name(), site.what)
		}
		for _, c := range callees {
			var cls AllocClass
			var via string
			if ff := facts.Func(c.fn); ff != nil {
				cls, via = ff.Alloc, ff.AllocVia
			} else {
				cls, via = AllocUnknown, "no facts for its package"
			}
			switch cls {
			case Allocates:
				pass.Reportf(c.pos, "hot path %s calls %s, which allocates: %s", fn.Name(), FuncKey(c.fn), via)
			case AllocUnknown:
				pass.Reportf(c.pos, "hot path %s calls %s, whose allocation behavior is unknown (%s)", fn.Name(), FuncKey(c.fn), via)
			}
		}
	}
}
