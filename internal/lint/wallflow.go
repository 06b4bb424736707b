package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// WallFlow proves wall-clock confinement: wall-clock readings
// (time.Now/Since/Until — including the justified //redvet:wallclock
// reads in the commands' progress and benchmark timing) are taint
// sources, and the taint must never reach a deterministic sink:
// simulation state mutation, an engine scheduling argument, a
// sim.Options or Result field, or any call into the deterministic
// packages whose outputs the byte-identity tests compare (exporters,
// telemetry, stats).  Wall time may flow freely to stderr reports,
// benchmark files and filenames — none of those are compared
// byte-for-byte.  nowallclock only checks that each read is annotated;
// wallflow checks where the value goes.
//
// Taint propagates like unitflow: through assignments, arithmetic,
// params, returns (WallRet/WallRetFromParam facts), struct fields
// (WallFields facts) and transitive sink parameters (WallSinkParam).
var WallFlow = &Analyzer{
	Name: "wallflow",
	Doc: "tracks wall-clock taint from time.Now/Since/Until through params, " +
		"returns and fields; fails if it reaches sim state, engine scheduling " +
		"or a deterministic exporter",
	Directive: "wallflow",
	Scope:     wallflowScope,
	Facts:     wallflowFacts,
	Run:       wallflowRun,
}

func wallflowScope(path string) bool {
	if strings.HasPrefix(path, "redcache/internal/lint") {
		return strings.HasPrefix(path, "redcache/internal/lint/testdata/src/wallflow")
	}
	return true
}

// wallDetPkgs are the deterministic packages: any call into them with a
// wall-tainted argument, or any wall-tainted store into one of their
// struct fields, is a finding.
var wallDetPkgs = map[string]bool{
	"redcache/internal/engine":    true,
	"redcache/internal/sim":       true,
	"redcache/internal/dram":      true,
	"redcache/internal/hbm":       true,
	"redcache/internal/cache":     true,
	"redcache/internal/cpu":       true,
	"redcache/internal/mem":       true,
	"redcache/internal/stats":     true,
	"redcache/internal/fault":     true,
	"redcache/internal/config":    true,
	"redcache/internal/trace":     true,
	"redcache/internal/workloads": true,
	"redcache/internal/energy":    true,
	"redcache/internal/obs":       true,
}

const wallBit uint64 = 1

func wallParamBit(i int) uint64 {
	if i >= 62 {
		return 0
	}
	return 1 << uint(i+1)
}

// wallSeedCall reports whether fn is a primitive wall-clock read.
func wallSeedCall(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	switch fn.Name() {
	case "Now", "Since", "Until":
		return true
	}
	return false
}

// wFlow is the per-function wall-taint analysis.
type wFlow struct {
	pass     *Pass
	facts    *FactStore
	decl     *ast.FuncDecl
	fn       *types.Func
	sig      *types.Signature
	labels   map[types.Object]uint64
	report   bool
	reported map[token.Pos]bool
	counted  map[token.Pos]bool
	changed  bool

	retW    []uint64
	sinkPar uint64
}

func newWFlow(pass *Pass, decl *ast.FuncDecl, report bool) *wFlow {
	fn, _ := pass.Info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return nil
	}
	f := &wFlow{
		pass:     pass,
		facts:    pass.EnsureFacts(),
		decl:     decl,
		fn:       fn,
		sig:      fn.Type().(*types.Signature),
		labels:   make(map[types.Object]uint64),
		reported: make(map[token.Pos]bool),
		counted:  make(map[token.Pos]bool),
		report:   report,
	}
	f.retW = make([]uint64, f.sig.Results().Len())
	for i := 0; i < f.sig.Params().Len(); i++ {
		f.labels[f.sig.Params().At(i)] = wallParamBit(i)
	}
	return f
}

func (f *wFlow) exprLabels(e ast.Expr) uint64 {
	if e == nil {
		return 0
	}
	var m uint64
	switch e := e.(type) {
	case *ast.Ident:
		if obj := f.pass.Info.Uses[e]; obj != nil {
			m |= f.labels[obj]
		}
	case *ast.ParenExpr:
		m |= f.exprLabels(e.X)
	case *ast.SelectorExpr:
		if pkg, key, ok := fieldKey(f.pass.Info, e); ok {
			if _, tainted := f.facts.WallReason(pkg, key); tainted {
				m |= wallBit
			}
		} else if obj := f.pass.Info.Uses[e.Sel]; obj != nil {
			m |= f.labels[obj]
		}
	case *ast.CallExpr:
		for _, r := range f.callLabels(e) {
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
		if e.Op != token.ARROW {
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

func (f *wFlow) callLabels(call *ast.CallExpr) []uint64 {
	// Conversions pass taint through unchanged.
	if tv, ok := f.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return []uint64{f.exprLabels(call.Args[0])}
	}
	callee := staticCallee(f.pass.Info, call)
	nres := 1
	if sig, ok := f.pass.Info.TypeOf(call.Fun).(*types.Signature); ok {
		nres = sig.Results().Len()
	}
	out := make([]uint64, nres)
	if callee == nil {
		return out
	}
	if wallSeedCall(callee) {
		for i := range out {
			out[i] |= wallBit
		}
		// A seed whose function body survives the report pass without
		// diagnostics is a statically confined wall-clock read.
		if f.report && !f.counted[call.Pos()] {
			f.counted[call.Pos()] = true
			f.pass.Proof.Wallflow++
		}
		return out
	}
	// time.Time/Duration methods (UnixNano, Seconds, Sub...) propagate
	// their receiver's taint into every result.
	if callee.Pkg() != nil && callee.Pkg().Path() == "time" {
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv := f.exprLabels(sel.X)
			for i := range out {
				out[i] |= recv
			}
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
			if i < len(ff.WallRet) && ff.WallRet[i] {
				out[i] |= wallBit
			}
			if i < len(ff.WallRetFromParam) {
				for j, from := range ff.WallRetFromParam[i] {
					if from {
						out[i] |= argLabel(j)
					}
				}
			}
		}
	}
	return out
}

// checkSinks flags wall-tainted arguments reaching deterministic sinks:
// engine scheduling, any deterministic-package entry point, and
// transitive WallSinkParam positions.
func (f *wFlow) checkSinks(call *ast.CallExpr, callee *types.Func) {
	sinkArg := func(j int, why string) {
		if j >= len(call.Args) {
			return
		}
		m := f.exprLabels(call.Args[j])
		if m&wallBit != 0 && f.report && !f.reported[call.Args[j].Pos()] {
			f.reported[call.Args[j].Pos()] = true
			f.pass.Reportf(call.Args[j].Pos(),
				"wall-clock-derived value %s reaches %s; wall time may only flow to stderr reports and benchmark files, never into deterministic state or output",
				exprString(call.Args[j]), why)
		}
		for i := 0; i < f.sig.Params().Len(); i++ {
			if m&wallParamBit(i) != 0 && f.sinkPar&wallParamBit(i) == 0 {
				f.sinkPar |= wallParamBit(i)
				f.changed = true
			}
		}
	}
	if j := engineSinkArg(callee); j >= 0 {
		sinkArg(j, FuncKey(callee)+" (an engine schedule argument)")
	} else if callee.Pkg() != nil && wallDetPkgs[callee.Pkg().Path()] {
		for j := range call.Args {
			sinkArg(j, FuncKey(callee)+" (a deterministic-package entry point)")
		}
	}
	if ff := f.facts.Func(callee); ff != nil {
		for j, isSink := range ff.WallSinkParam {
			if isSink {
				sinkArg(j, fmt.Sprintf("%s parameter %d (a transitive deterministic sink)", FuncKey(callee), j))
			}
		}
	}
}

func (f *wFlow) merge(obj types.Object, m uint64) {
	if m == 0 || obj == nil {
		return
	}
	if f.labels[obj]&m != m {
		f.labels[obj] |= m
		f.changed = true
	}
}

func (f *wFlow) step() {
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
						obj = f.pass.Info.Uses[id]
					}
					if obj != nil {
						f.merge(obj, m)
					}
				}
			}
		case *ast.ReturnStmt:
			if len(n.Results) == len(f.retW) {
				for i, e := range n.Results {
					f.retW[i] |= f.exprLabels(e)
				}
			} else if len(n.Results) == 1 && len(f.retW) > 1 {
				if call, ok := unparen(n.Results[0]).(*ast.CallExpr); ok {
					rs := f.callLabels(call)
					for i := range f.retW {
						if i < len(rs) {
							f.retW[i] |= rs[i]
						}
					}
				}
			}
		case *ast.CallExpr:
			if callee := staticCallee(f.pass.Info, n); callee != nil && !wallSeedCall(callee) {
				f.checkSinks(n, callee)
			}
		}
		return true
	})
}

func (f *wFlow) assignStep(n *ast.AssignStmt) {
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
			if m == 0 {
				continue
			}
			pkg, key, ok := fieldKey(f.pass.Info, lhs)
			if !ok {
				continue
			}
			// A wall-tainted store into a deterministic package's field is
			// itself a sink (Result fields, sim/engine state); stores into
			// other fields — host-side timing state — just record the
			// taint for cross-function flow.  Params flowing into a
			// deterministic field make this function a transitive sink.
			if wallDetPkgs[pkg] {
				if m&wallBit != 0 && f.report && !f.reported[lhs.Pos()] {
					f.reported[lhs.Pos()] = true
					f.pass.Reportf(lhs.Pos(),
						"wall-clock-derived value stored into deterministic field %s.%s; wall time may only live in stderr reports and host-side timing state",
						pkg, key)
				}
				for i := 0; i < f.sig.Params().Len(); i++ {
					if m&wallParamBit(i) != 0 && f.sinkPar&wallParamBit(i) == 0 {
						f.sinkPar |= wallParamBit(i)
						f.changed = true
					}
				}
				continue
			}
			if m&wallBit != 0 && f.facts.TaintWall(pkg, key, fmt.Sprintf("assigned in %s", FuncKey(f.fn))) {
				f.changed = true
			}
		}
	}
}

func (f *wFlow) run() (wallRet []bool, fromParam [][]bool, sinkParam []bool) {
	if f.decl.Body == nil {
		return nil, nil, nil
	}
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
	for i := range f.retW {
		wallRet = append(wallRet, f.retW[i]&wallBit != 0)
		row := make([]bool, np)
		for j := 0; j < np; j++ {
			row[j] = f.retW[i]&wallParamBit(j) != 0
		}
		fromParam = append(fromParam, row)
	}
	sinkParam = make([]bool, np)
	for j := 0; j < np; j++ {
		sinkParam[j] = f.sinkPar&wallParamBit(j) != 0
	}
	return wallRet, fromParam, sinkParam
}

// wallflowFacts computes wall-taint facts for every function, iterating
// the package to a fixpoint so declaration order doesn't matter.
func wallflowFacts(pass *Pass) {
	facts := pass.EnsureFacts()
	decls := funcDecls(pass)
	for round := 0; round < 4; round++ {
		changed := false
		for fn, decl := range decls {
			if decl.Body == nil {
				continue
			}
			flow := newWFlow(pass, decl, false)
			if flow == nil {
				continue
			}
			wallRet, fromPar, sinkPar := flow.run()
			if flow.changed {
				changed = true // field facts grew this round
			}
			if allTrivial(wallRet, fromPar, sinkPar) {
				continue
			}
			ff := facts.EnsureFunc(fn)
			if !reflect.DeepEqual(ff.WallRet, wallRet) ||
				!reflect.DeepEqual(ff.WallRetFromParam, fromPar) ||
				!reflect.DeepEqual(ff.WallSinkParam, sinkPar) {
				ff.WallRet, ff.WallRetFromParam, ff.WallSinkParam = wallRet, fromPar, sinkPar
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// wallflowRun replays the analysis with reporting enabled.
func wallflowRun(pass *Pass) {
	for _, decl := range funcDecls(pass) {
		if decl.Body == nil {
			continue
		}
		if flow := newWFlow(pass, decl, true); flow != nil {
			flow.run()
		}
	}
}
