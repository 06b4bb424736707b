package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// UnitFlow tracks nanosecond-domain taint across package boundaries.
// PR 1's cycleunits catches syntactic hazards (narrowing conversions,
// magic literals) inside one package; UnitFlow complements it with a
// value-flow analysis: any value derived from package time (a
// time.Duration, a Duration method result, an int64 conversion of
// either) is tainted, the taint propagates through assignments,
// arithmetic, function parameters and returns (via exported facts),
// struct fields and channel payloads, and a diagnostic fires if a
// tainted value reaches an engine scheduling argument — however many
// call hops or packages it crosses.  The engine's time arguments are
// CPU cycles; a nanosecond slipping in skews every latency the
// simulator reports by the cycles-per-ns factor.
//
// The analysis is flow- and path-insensitive (a variable once tainted
// stays tainted for the whole function), which errs on the side of
// reporting: untainting requires an explicit unit conversion through a
// named helper in internal/config, which returns a fresh value with no
// taint.  Suppressions use //redvet:unitflow with a justification.
var UnitFlow = &Analyzer{
	Name: "unitflow",
	Doc: "tracks nanosecond-typed values through params, returns, fields and " +
		"channels across packages; fails if one reaches an engine schedule argument",
	Directive: "unitflow",
	Scope: func(path string) bool {
		return !strings.HasPrefix(path, "redcache/internal/lint")
	},
	Facts: unitflowFacts,
	Run:   unitflowRun,
}

// Taint label bits: bit 0 is the NS domain; bit i+1 means "derived from
// parameter i" (functions with >62 parameters don't occur here).
const nsBit uint64 = 1

func paramBit(i int) uint64 {
	if i >= 62 {
		return 0
	}
	return 1 << uint(i+1)
}

// isTimeType reports whether t is (or aliases) a named type declared in
// package time — the primitive nanosecond-domain source.
func isTimeType(t types.Type) bool {
	if t == nil {
		return false
	}
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "time" {
			return true
		}
	}
	if a, ok := t.(*types.Alias); ok {
		return isTimeType(types.Unalias(a))
	}
	return false
}

// engineSinkArg returns the index of the cycle-valued argument if fn is
// an engine scheduling entry point (an Engine scheduling method or
// Timer.Arm), or -1.  All engine sinks take the
// delay/deadline/period/limit as their first argument.
func engineSinkArg(fn *types.Func) int {
	recv := "Engine"
	switch fn.Name() {
	case "Schedule", "ScheduleTimed", "SchedulePeriodic", "After", "RunUntil":
	case "Arm":
		recv = "Timer"
	default:
		return -1
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return -1
	}
	if !strings.HasSuffix(sig.Recv().Type().String(), "redcache/internal/engine."+recv) {
		return -1
	}
	return 0
}

// fieldKey builds the taint key for a selector whose Sel resolves to a
// struct field: "<TypeName>.<field>", scoped by the field's package.
func fieldKey(info *types.Info, sel *ast.SelectorExpr) (pkgPath, key string, ok bool) {
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return "", "", false
	}
	field, isVar := s.Obj().(*types.Var)
	if !isVar || field.Pkg() == nil {
		return "", "", false
	}
	recv := s.Recv()
	if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	return field.Pkg().Path(), named.Obj().Name() + "." + field.Name(), true
}

// nsFlow is the per-function taint analysis state.
type nsFlow struct {
	pass     *Pass
	facts    *FactStore
	decl     *ast.FuncDecl
	fn       *types.Func
	sig      *types.Signature
	labels   map[types.Object]uint64 // local vars and params
	chanNS   map[types.Object]bool   // local channels carrying ns payloads
	report   bool
	reported map[token.Pos]bool // sink args already reported (dedup)
	changed  bool

	retNS   []uint64 // accumulated result labels
	sinkPar uint64   // params that reach a sink (bitmask over paramBit)
}

func newNSFlow(pass *Pass, decl *ast.FuncDecl, report bool) *nsFlow {
	fn, _ := pass.Info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	f := &nsFlow{
		pass:     pass,
		facts:    pass.EnsureFacts(),
		decl:     decl,
		fn:       fn,
		sig:      fn.Type().(*types.Signature),
		labels:   make(map[types.Object]uint64),
		chanNS:   make(map[types.Object]bool),
		reported: make(map[token.Pos]bool),
		report:   report,
	}
	f.retNS = make([]uint64, f.sig.Results().Len())
	for i := 0; i < f.sig.Params().Len(); i++ {
		p := f.sig.Params().At(i)
		f.labels[p] = paramBit(i)
		if isTimeType(p.Type()) {
			f.labels[p] |= nsBit
		}
	}
	return f
}

// exprLabels computes the taint mask of e.
func (f *nsFlow) exprLabels(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	var m uint64
	if isTimeType(f.pass.Info.TypeOf(e)) {
		m |= nsBit
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := f.pass.Info.Uses[e]; obj != nil {
			m |= f.labels[obj]
		}
	case *ast.ParenExpr:
		m |= f.exprLabels(e.X)
	case *ast.SelectorExpr:
		if pkg, key, ok := fieldKey(f.pass.Info, e); ok {
			if _, tainted := f.facts.TaintReason(pkg, key); tainted {
				m |= nsBit
			}
		} else if obj := f.pass.Info.Uses[e.Sel]; obj != nil {
			m |= f.labels[obj]
		}
	case *ast.CallExpr:
		rs := f.callLabels(e)
		for _, r := range rs {
			m |= r
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			// Comparisons drop the value into the boolean domain.
		default:
			m |= f.exprLabels(e.X) | f.exprLabels(e.Y)
		}
	case *ast.UnaryExpr:
		if e.Op == token.ARROW { // channel receive
			m |= f.recvLabels(e.X)
		} else {
			m |= f.exprLabels(e.X)
		}
	case *ast.StarExpr:
		m |= f.exprLabels(e.X)
	case *ast.IndexExpr:
		m |= f.exprLabels(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= f.exprLabels(kv.Value)
			} else {
				m |= f.exprLabels(el)
			}
		}
	case *ast.TypeAssertExpr:
		m |= f.exprLabels(e.X)
	}
	return m
}

// recvLabels computes payload taint for a receive from channel ch.
func (f *nsFlow) recvLabels(ch ast.Expr) uint64 {
	ch = unparen(ch)
	if sel, ok := ch.(*ast.SelectorExpr); ok {
		if pkg, key, ok := fieldKey(f.pass.Info, sel); ok {
			if _, tainted := f.facts.TaintReason(pkg, key); tainted {
				return nsBit
			}
		}
		return 0
	}
	if id, ok := ch.(*ast.Ident); ok {
		if obj := f.pass.Info.Uses[id]; obj != nil {
			if f.chanNS[obj] {
				return nsBit
			}
			if obj.Pkg() != nil {
				if _, tainted := f.facts.TaintReason(obj.Pkg().Path(), obj.Name()); tainted {
					return nsBit
				}
			}
		}
	}
	return 0
}

// taintChan records that channel ch carries a nanosecond payload.
func (f *nsFlow) taintChan(ch ast.Expr, reason string) {
	ch = unparen(ch)
	if sel, ok := ch.(*ast.SelectorExpr); ok {
		if pkg, key, ok := fieldKey(f.pass.Info, sel); ok {
			f.facts.Taint(pkg, key, reason)
		}
		return
	}
	if id, ok := ch.(*ast.Ident); ok {
		if obj := f.pass.Info.Uses[id]; obj != nil {
			if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
				f.facts.Taint(obj.Pkg().Path(), obj.Name(), reason) // package-level channel
			} else if !f.chanNS[obj] {
				f.chanNS[obj] = true
				f.changed = true
			}
		}
	}
}

// callLabels computes per-result taint for a call, consulting callee
// facts, and performs sink checks on the arguments.
func (f *nsFlow) callLabels(call *ast.CallExpr) []uint64 {
	// Conversions pass taint through unchanged.
	if tv, ok := f.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		m := f.exprLabels(call.Args[0])
		if isTimeType(tv.Type) {
			m |= nsBit
		}
		return []uint64{m}
	}
	callee := staticCallee(f.pass.Info, call)
	nres := 1
	if sig, ok := f.pass.Info.TypeOf(call.Fun).(*types.Signature); ok {
		nres = sig.Results().Len()
	}
	out := make([]uint64, nres)

	if callee != nil {
		// Anything produced by package time is nanosecond-domain.
		if callee.Pkg() != nil && callee.Pkg().Path() == "time" {
			for i := range out {
				out[i] |= nsBit
			}
		}
		f.checkSinks(call, callee)
		if ff := f.facts.Func(callee); ff != nil {
			argLabel := func(j int) uint64 {
				if j < len(call.Args) {
					return f.exprLabels(call.Args[j])
				}
				return 0
			}
			for i := range out {
				if i < len(ff.NSReturn) && ff.NSReturn[i] {
					out[i] |= nsBit
				}
				if i < len(ff.ReturnFromParam) {
					for j, from := range ff.ReturnFromParam[i] {
						if from {
							out[i] |= argLabel(j)
						}
					}
				}
			}
		}
	}
	return out
}

// checkSinks fires diagnostics (Run) or records NSSinkParam facts
// (Facts) for engine sinks and transitive sinks.
func (f *nsFlow) checkSinks(call *ast.CallExpr, callee *types.Func) {
	sinkArg := func(j int, why string) {
		if j >= len(call.Args) {
			return
		}
		m := f.exprLabels(call.Args[j])
		if m&nsBit != 0 && f.report && !f.reported[call.Args[j].Pos()] {
			f.reported[call.Args[j].Pos()] = true
			f.pass.Reportf(call.Args[j].Pos(),
				"nanosecond-domain value %s reaches %s; engine time arguments are CPU cycles — convert with the config cycles-per-ns helpers first",
				exprString(call.Args[j]), why)
		}
		// Params flowing into the sink become transitive sinks of this
		// function.
		for i := 0; i < f.sig.Params().Len(); i++ {
			if m&paramBit(i) != 0 && f.sinkPar&paramBit(i) == 0 {
				f.sinkPar |= paramBit(i)
				f.changed = true
			}
		}
	}
	if j := engineSinkArg(callee); j >= 0 {
		sinkArg(j, FuncKey(callee))
	}
	if ff := f.facts.Func(callee); ff != nil {
		for j, isSink := range ff.NSSinkParam {
			if isSink {
				sinkArg(j, fmt.Sprintf("%s parameter %d (a transitive engine-schedule sink)", FuncKey(callee), j))
			}
		}
	}
}

// step runs one pass over the function body, updating labels.
func (f *nsFlow) step() {
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			f.assignStep(n)
		case *ast.ValueSpec:
			for _, name := range n.Names {
				obj := f.pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				var m uint64
				for _, v := range n.Values {
					m |= f.exprLabels(v)
				}
				f.merge(obj, m)
			}
		case *ast.RangeStmt:
			m := f.exprLabels(n.X)
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					obj := f.pass.Info.Defs[id]
					if obj == nil {
						obj = f.pass.Info.Uses[id] // range with = instead of :=
					}
					if obj != nil {
						f.merge(obj, m)
					}
				}
			}
		case *ast.SendStmt:
			if f.exprLabels(n.Value)&nsBit != 0 {
				f.taintChan(n.Chan, fmt.Sprintf("send of %s in %s", exprString(n.Value), FuncKey(f.fn)))
			}
		case *ast.ReturnStmt:
			if len(n.Results) == len(f.retNS) {
				for i, e := range n.Results {
					f.retNS[i] |= f.exprLabels(e)
				}
			} else if len(n.Results) == 1 && len(f.retNS) > 1 {
				if call, ok := unparen(n.Results[0]).(*ast.CallExpr); ok {
					rs := f.callLabels(call)
					for i := range f.retNS {
						if i < len(rs) {
							f.retNS[i] |= rs[i]
						}
					}
				}
			}
		case *ast.CallExpr:
			// Sink checks also run for call statements whose results are
			// discarded (exprLabels never visits them otherwise).
			if callee := staticCallee(f.pass.Info, n); callee != nil {
				f.checkSinks(n, callee)
			}
		}
		return true
	})
}

// assignStep propagates labels through one assignment, recording field
// taint for struct-field writes.
func (f *nsFlow) assignStep(n *ast.AssignStmt) {
	// Per-result labels for a, b := f().
	var rhs []uint64
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		if call, ok := unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			rhs = f.callLabels(call)
		} else {
			m := f.exprLabels(n.Rhs[0])
			rhs = make([]uint64, len(n.Lhs))
			for i := range rhs {
				rhs[i] = m
			}
		}
	} else {
		for _, r := range n.Rhs {
			rhs = append(rhs, f.exprLabels(r))
		}
	}
	for i, lhs := range n.Lhs {
		var m uint64
		if i < len(rhs) {
			m = rhs[i]
		}
		switch lhs := unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			obj := f.pass.Info.Defs[lhs]
			if obj == nil {
				obj = f.pass.Info.Uses[lhs]
			}
			if obj != nil {
				f.merge(obj, m)
			}
		case *ast.SelectorExpr:
			if m&nsBit != 0 {
				if pkg, key, ok := fieldKey(f.pass.Info, lhs); ok {
					f.facts.Taint(pkg, key, fmt.Sprintf("assigned in %s", FuncKey(f.fn)))
				}
			}
		}
	}
}

func (f *nsFlow) merge(obj types.Object, m uint64) {
	if m == 0 {
		return
	}
	if f.labels[obj]&m != m {
		f.labels[obj] |= m
		f.changed = true
	}
}

// run iterates to a fixpoint and returns the function's ns facts.
func (f *nsFlow) run() (nsReturn []bool, fromParam [][]bool, sinkParam []bool) {
	if f.decl.Body == nil {
		return nil, nil, nil
	}
	// Iterate silently to a fixpoint, then (in report mode) one final
	// pass with stable labels so each sink fires exactly once.
	wantReport := f.report
	f.report = false
	for i := 0; i < 8; i++ {
		f.changed = false
		f.step()
		if !f.changed {
			break
		}
	}
	if wantReport {
		f.report = true
		f.step()
	}
	np := f.sig.Params().Len()
	for i := range f.retNS {
		nsReturn = append(nsReturn, f.retNS[i]&nsBit != 0)
		row := make([]bool, np)
		for j := 0; j < np; j++ {
			row[j] = f.retNS[i]&paramBit(j) != 0
		}
		fromParam = append(fromParam, row)
	}
	sinkParam = make([]bool, np)
	for j := 0; j < np; j++ {
		sinkParam[j] = f.sinkPar&paramBit(j) != 0
	}
	return nsReturn, fromParam, sinkParam
}

// allTrivial reports whether the fact slices carry no information.
func allTrivial(nsReturn []bool, fromParam [][]bool, sinkParam []bool) bool {
	for _, b := range nsReturn {
		if b {
			return false
		}
	}
	for _, row := range fromParam {
		for _, b := range row {
			if b {
				return false
			}
		}
	}
	for _, b := range sinkParam {
		if b {
			return false
		}
	}
	return true
}

// unitflowFacts computes ns-flow facts for every function, iterating
// the whole package to a fixpoint so declaration order doesn't matter.
func unitflowFacts(pass *Pass) {
	facts := pass.EnsureFacts()
	decls := funcDecls(pass)
	for round := 0; round < 4; round++ {
		changed := false
		for fn, decl := range decls {
			if decl.Body == nil {
				continue
			}
			flow := newNSFlow(pass, decl, false)
			if flow == nil {
				continue
			}
			nsRet, fromPar, sinkPar := flow.run()
			ff := facts.EnsureFunc(fn)
			if allTrivial(nsRet, fromPar, sinkPar) {
				// Keep zero-value facts implicit so serialized facts stay
				// small and the common all-clean case diffs empty.
				continue
			}
			if !reflect.DeepEqual(ff.NSReturn, nsRet) ||
				!reflect.DeepEqual(ff.ReturnFromParam, fromPar) ||
				!reflect.DeepEqual(ff.NSSinkParam, sinkPar) {
				ff.NSReturn, ff.ReturnFromParam, ff.NSSinkParam = nsRet, fromPar, sinkPar
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// unitflowRun replays the analysis over the target package with
// reporting enabled (facts for every dependency are already present).
func unitflowRun(pass *Pass) {
	for _, decl := range funcDecls(pass) {
		if decl.Body == nil {
			continue
		}
		if flow := newNSFlow(pass, decl, true); flow != nil {
			flow.run()
		}
	}
}
