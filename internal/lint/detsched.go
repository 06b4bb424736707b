package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DetSched proves that all simulated-time ordering in the simulator
// core flows through the engine's (at, seq) total order, so a run's
// results are a pure function of its configuration.  It flags the constructs whose ordering the Go runtime (not
// the event queue) decides:
//
//   - go statements (goroutine interleaving is scheduler-chosen),
//   - select over two or more channels (the runtime picks a ready case
//     pseudo-randomly; one case plus default is a deterministic poll),
//   - sync.Map (unordered iteration and store visibility),
//   - bare sync/atomic operations (effects race-ordered outside the
//     event queue),
//   - sync.WaitGroup fan-in (completion order is arrival order),
//   - comparisons ordering two .at fields of a struct that also carries
//     a seq field, in a function that never reads seq — an event source
//     firing at equal timestamps with no tiebreak.
//
// Each function exports a Nondet fact naming its first hazard, and the
// hazard propagates to callers across any number of call hops and
// package boundaries, so the sim core's entry points carry a transitive
// determinism proof.  Callees with no facts are treated as
// deterministic: every in-module package runs a fact phase before any
// importer's, and the stdlib hazards above are flagged syntactically,
// so the optimism is sound rather than heuristic (dynamic dispatch
// remains a component boundary, as in noalloc).
//
// Suppression is //redvet:detsafe with a justification; a suppressed
// site also stops fact propagation, so one justified annotation at the
// harness fan-out keeps its callers clean.  The sim core must not need
// any: the acceptance gate counts detsafe annotations there and
// requires zero.
var DetSched = &Analyzer{
	Name: "detsched",
	Doc: "proves simulated-time ordering flows through the engine's (at, seq) " +
		"total order: flags goroutines, racy selects, sync.Map, bare atomics, " +
		"WaitGroup fan-in and missing seq tiebreaks, transitively via facts",
	Directive: "detsafe",
	Scope:     detschedScope,
	Facts:     detschedFacts,
	Run:       detschedRun,
}

// detschedPkgs is the determinism-proof surface: the simulator core
// plus the experiments harness (whose fan-out carries the justified
// detsafe annotations).
var detschedPkgs = []string{
	"redcache/internal/engine",
	"redcache/internal/sim",
	"redcache/internal/dram",
	"redcache/internal/hbm",
	"redcache/internal/cache",
	"redcache/internal/cpu",
	"redcache/internal/mem",
	"redcache/internal/obs",
	"redcache/internal/fault",
	"redcache/internal/experiments",
}

func detschedScope(path string) bool {
	for _, p := range detschedPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return strings.HasPrefix(path, "redcache/internal/lint/testdata/src/detsched")
}

// detSite is one scheduling-nondeterminism hazard in a function body.
type detSite struct {
	pos  token.Pos
	what string
}

// atCmp is a candidate missing-tiebreak comparison: both operands are
// .at field reads of tn, which also declares a seq field.
type atCmp struct {
	pos token.Pos
	tn  *types.TypeName
}

type detScanner struct {
	pass    *Pass
	sites   []detSite
	callees []calleeRef
	atCmps  []atCmp
	seqRead map[*types.TypeName]bool
}

func (s *detScanner) site(pos token.Pos, format string, args ...any) {
	s.sites = append(s.sites, detSite{pos: pos, what: fmt.Sprintf(format, args...)})
}

// detScanFunc collects one function's hazards and its statically
// resolved in-module callees.
func detScanFunc(pass *Pass, decl *ast.FuncDecl) ([]detSite, []calleeRef) {
	if decl.Body == nil {
		return nil, nil
	}
	s := &detScanner{pass: pass, seqRead: make(map[*types.TypeName]bool)}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			s.site(n.Pos(), "go statement: goroutine interleaving is scheduler-chosen, not (at, seq)-ordered")
		case *ast.SelectStmt:
			ready := 0
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					ready++
				}
			}
			if ready >= 2 {
				s.site(n.Pos(), "select over %d channels: the runtime picks a ready case pseudo-randomly", ready)
			}
		case *ast.CallExpr:
			s.call(n)
		case *ast.SelectorExpr:
			s.selector(n)
		case *ast.BinaryExpr:
			s.compare(n)
		}
		return true
	})
	sites := s.sites
	for _, c := range s.atCmps {
		if !s.seqRead[c.tn] {
			sites = append(sites, detSite{pos: c.pos, what: fmt.Sprintf(
				"orders %s events by .at alone; equal timestamps need the seq tiebreak (compare through the engine's (at, seq) order)", c.tn.Name())})
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites, s.callees
}

func (s *detScanner) call(call *ast.CallExpr) {
	fn := staticCallee(s.pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "sync/atomic":
		s.site(call.Pos(), "bare %s: atomic effects are race-ordered outside the (at, seq) event order", FuncKey(fn))
	case "sync":
		recv := ""
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv = sig.Recv().Type().String()
		}
		switch {
		case strings.Contains(recv, "sync.Map"):
			s.site(call.Pos(), "sync.Map %s: iteration and store visibility order are nondeterministic", fn.Name())
		case fn.Name() == "Wait" && strings.Contains(recv, "sync.WaitGroup"):
			s.site(call.Pos(), "WaitGroup fan-in: goroutine completion order is arrival order; merge results through a deterministic reduce")
		}
	default:
		s.callees = append(s.callees, calleeRef{pos: call.Pos(), fn: fn})
	}
}

// selector records reads of a struct's seq field, which sanction that
// type's .at comparisons in the same function.
func (s *detScanner) selector(sel *ast.SelectorExpr) {
	if sel.Sel.Name != "seq" && sel.Sel.Name != "Seq" {
		return
	}
	if tn := fieldRecvTypeName(s.pass.Info, sel); tn != nil {
		s.seqRead[tn] = true
	}
}

func (s *detScanner) compare(b *ast.BinaryExpr) {
	switch b.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
	default:
		return
	}
	x := atFieldType(s.pass.Info, b.X)
	y := atFieldType(s.pass.Info, b.Y)
	if x == nil || x != y {
		return
	}
	if structHasSeq(x) {
		s.atCmps = append(s.atCmps, atCmp{pos: b.Pos(), tn: x})
	}
}

// atFieldType resolves e as a read of an `at`/`At` struct field and
// returns the declaring type, or nil.
func atFieldType(info *types.Info, e ast.Expr) *types.TypeName {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "at" && sel.Sel.Name != "At") {
		return nil
	}
	return fieldRecvTypeName(info, sel)
}

// fieldRecvTypeName returns the named receiver type of a field
// selection, or nil for non-field selectors.
func fieldRecvTypeName(info *types.Info, sel *ast.SelectorExpr) *types.TypeName {
	sln, ok := info.Selections[sel]
	if !ok || sln.Kind() != types.FieldVal {
		return nil
	}
	recv := types.Unalias(sln.Recv())
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = types.Unalias(p.Elem())
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

func structHasSeq(tn *types.TypeName) bool {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if n := st.Field(i).Name(); n == "seq" || n == "Seq" {
			return true
		}
	}
	return false
}

// detschedFacts computes each function's Nondet fact: its first direct
// hazard (suppressed sites excluded, so a justified detsafe annotation
// stops propagation), or the first callee proven nondeterministic.
func detschedFacts(pass *Pass) {
	facts := pass.EnsureFacts()
	decls := funcDecls(pass)

	type detLocal struct {
		nondet  string
		callees []calleeRef
	}
	locals := make(map[*types.Func]*detLocal)
	for fn, decl := range decls {
		sites, callees := detScanFunc(pass, decl)
		l := &detLocal{callees: callees}
		for _, site := range sites {
			if !pass.suppressed(pass.Fset.Position(site.pos)) {
				l.nondet = site.what
				break
			}
		}
		locals[fn] = l
	}

	// Boolean fixpoint first (the result is order-independent), then one
	// deterministic labeling pass picking each function's first
	// nondeterministic callee in source order — so the serialized facts
	// are byte-stable across runs regardless of map iteration order.
	bad := make(map[*types.Func]bool)
	isBad := func(fn *types.Func) bool {
		if l, ok := locals[fn]; ok {
			return l.nondet != "" || bad[fn]
		}
		ff := facts.Func(fn)
		return ff != nil && ff.Nondet != ""
	}
	for changed := true; changed; {
		changed = false
		for fn, l := range locals {
			if l.nondet != "" || bad[fn] {
				continue
			}
			for _, c := range l.callees {
				if isBad(c.fn) {
					bad[fn] = true
					changed = true
					break
				}
			}
		}
	}
	for fn, l := range locals {
		reason := l.nondet
		if reason == "" && bad[fn] {
			for _, c := range l.callees {
				if isBad(c.fn) {
					reason = "calls " + FuncKey(c.fn)
					break
				}
			}
		}
		if reason == "" {
			continue // keep all-clean facts implicit, like unitflow
		}
		facts.EnsureFunc(fn).Nondet = reason
	}
}

// detschedRun reports every direct hazard in the target package plus
// each call into a function whose Nondet fact proves it hides one.
func detschedRun(pass *Pass) {
	facts := pass.EnsureFacts()
	decls := funcDecls(pass)

	fns := make([]*types.Func, 0, len(decls))
	for fn := range decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return decls[fns[i]].Pos() < decls[fns[j]].Pos() })

	for _, fn := range fns {
		sites, callees := detScanFunc(pass, decls[fn])
		for _, site := range sites {
			pass.Reportf(site.pos, "%s", site.what)
		}
		for _, c := range callees {
			if ff := facts.Func(c.fn); ff != nil && ff.Nondet != "" {
				pass.Reportf(c.pos, "calls %s, which is scheduling-nondeterministic: %s",
					FuncKey(c.fn), ff.Nondet)
			}
		}
	}
}
