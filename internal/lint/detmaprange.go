package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetMapRange flags `range` statements over maps in deterministic
// packages.  Go randomizes map iteration order, so any map range on a
// path that feeds simulation state, statistics aggregation or report
// emission silently breaks the engine's bit-reproducibility guarantee.
//
// A map range is accepted without annotation when the loop body is
// provably order-insensitive:
//
//   - it only accumulates into integer variables with commutative
//     compound assignments (+=, -=, |=, &=, ^=, ++, --), optionally
//     guarded by if statements — integer addition is associative and
//     commutative, so iteration order cannot change the result (float
//     accumulation is NOT exempt: float addition is order-dependent);
//   - or it only collects keys/values with `s = append(s, x)`, the
//     gather-then-sort idiom, and s is passed to a sort.* or
//     slices.Sort* call somewhere in the same function (FuncDecl or
//     FuncLit).  A gather that is never sorted carries map order into
//     whatever consumes it: an emitted row order, or a float reduction
//     whose rounding depends on the order of its terms.
//
// Anything else needs keys sorted before iteration, or a justified
// `//redvet:ordered` annotation.
var DetMapRange = &Analyzer{
	Name:      "detmaprange",
	Doc:       "flags map iteration whose order can reach simulator state, reports or float reductions (unsorted gathers included)",
	Directive: "ordered",
	Scope: func(path string) bool {
		return !strings.HasPrefix(path, "redcache/internal/lint") ||
			strings.HasPrefix(path, "redcache/internal/lint/testdata/src/detmaprange")
	},
	Run: runDetMapRange,
}

func runDetMapRange(pass *Pass) {
	sorted := make(map[ast.Node]map[types.Object]bool) // per enclosing function
	inspect(pass, func(n ast.Node, stack []ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMapType(pass, rs.X) {
			return true
		}
		fn := enclosingFunc(stack)
		if sorted[fn] == nil {
			sorted[fn] = sortedVars(pass, fn)
		}
		if orderInsensitiveBody(pass, rs.Body, sorted[fn]) {
			return true
		}
		pass.ReportFix(rs.For, gatherSortFix(pass, rs),
			"range over map %s has nondeterministic order; sort the keys first or annotate //redvet:ordered with a justification", exprString(rs.X))
		return true
	})
}

// gatherSortFix renders the mechanical gather-then-sort replacement for
// a map range, with the real map expression and key type filled in.
func gatherSortFix(pass *Pass, rs *ast.RangeStmt) string {
	m, ok := pass.Info.TypeOf(rs.X).Underlying().(*types.Map)
	if !ok {
		return ""
	}
	keyT := types.TypeString(m.Key(), func(p *types.Package) string { return p.Name() })
	mapExpr := exprString(rs.X)
	keyVar := "k"
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyVar = id.Name
	}
	cmp := "keys[i] < keys[j]"
	if !isOrderedType(m.Key()) {
		cmp = "/* order keys[i] before keys[j] */"
	}
	return fmt.Sprintf(`keys := make([]%s, 0, len(%s))
for %s := range %s {
	keys = append(keys, %s)
}
sort.Slice(keys, func(i, j int) bool { return %s })
for _, %s := range keys {
	// ... body using %s and %s[%s]
}`, keyT, mapExpr, keyVar, mapExpr, keyVar, cmp, keyVar, keyVar, mapExpr, keyVar)
}

// isOrderedType reports whether < is defined for t.
func isOrderedType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsOrdered) != 0
}

func isMapType(pass *Pass, x ast.Expr) bool {
	t := pass.Info.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// enclosingFunc returns the innermost FuncLit or FuncDecl on stack; a
// range statement always has one.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return stack[i]
		}
	}
	return nil
}

// sortedVars returns the variables passed as the first argument of a
// sort.* or slices.Sort* call anywhere in fn.  The check is
// flow-insensitive: a sort before the gather also counts.
func sortedVars(pass *Pass, fn ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isSortCall(pass, call) {
			return true
		}
		if id, ok := unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isSortCall reports whether call sorts its first argument in place.
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	fn := staticCallee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Float64s", "Strings":
			return true
		}
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// orderInsensitiveBody reports whether every statement in the loop body
// is a commutative integer accumulation or an append-gather into a
// variable in sorted.
func orderInsensitiveBody(pass *Pass, body *ast.BlockStmt, sorted map[types.Object]bool) bool {
	if body == nil || len(body.List) == 0 {
		return true // `for range m {}` or key-only counting
	}
	var ok func(s ast.Stmt) bool
	ok = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return isIntegerType(pass.Info.TypeOf(s.X))
		case *ast.AssignStmt:
			return commutativeAssign(pass, s) || appendGather(pass, s, sorted)
		case *ast.IfStmt:
			if s.Init != nil && !ok(s.Init) {
				return false
			}
			for _, b := range s.Body.List {
				if !ok(b) {
					return false
				}
			}
			if s.Else != nil {
				return ok(s.Else)
			}
			return true
		case *ast.BlockStmt:
			for _, b := range s.List {
				if !ok(b) {
					return false
				}
			}
			return true
		default:
			return false
		}
	}
	for _, s := range body.List {
		if !ok(s) {
			return false
		}
	}
	return true
}

// commutativeAssign matches `x op= e` where op is order-insensitive for
// integers and x is integer-typed.
func commutativeAssign(pass *Pass, s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	for _, lhs := range s.Lhs {
		if !isIntegerType(pass.Info.TypeOf(lhs)) {
			return false
		}
	}
	return true
}

// appendGather matches the key-collection idiom `s = append(s, ...)`
// where s is in sorted.
func appendGather(pass *Pass, s *ast.AssignStmt, sorted map[types.Object]bool) bool {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	return ok && first.Name == lhs.Name && sorted[pass.Info.Uses[lhs]]
}
