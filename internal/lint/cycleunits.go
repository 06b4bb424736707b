package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CycleUnits enforces the simulator's unit contract: simulation time is
// int64 CPU cycles, end to end.  Two failure modes are flagged:
//
//  1. Truncating conversions of an int64 value to a narrower (or
//     platform-dependent) integer type.  Cycle counts routinely exceed
//     2^31 at default scale, so `int(cycles)` silently corrupts time on
//     32-bit builds and invites accidental narrowing on 64-bit ones.
//
//  2. Magic latency literals fed directly into the event engine:
//     `eng.After(100, ...)` hard-codes timing that belongs in
//     internal/config next to the paper's Table I parameters, where the
//     ablation harness can sweep it.
//
// Bounded, non-time narrowings (e.g. a histogram bar width clamped to
// 40) carry a `//redvet:units` annotation.
var CycleUnits = &Analyzer{
	Name:      "cycleunits",
	Doc:       "flags int64 cycle truncation and magic latency literals outside internal/config",
	Directive: "units",
	Scope: func(path string) bool {
		switch {
		case strings.HasPrefix(path, "redcache/internal/lint"),
			path == "redcache/internal/config",
			path == "redcache/internal/trace",
			path == "redcache/internal/workloads":
			// config owns the literals; trace/workloads narrow sizes
			// and footprints, never cycles.
			return false
		}
		return strings.HasPrefix(path, "redcache/internal/") ||
			path == "redcache"
	},
	Run: runCycleUnits,
}

// narrowIntKinds are conversion targets that lose (or may lose) int64
// range.
var narrowIntKinds = map[types.BasicKind]bool{
	types.Int: true, types.Int8: true, types.Int16: true, types.Int32: true,
	types.Uint8: true, types.Uint16: true, types.Uint32: true,
	types.Uintptr: true,
}

func runCycleUnits(pass *Pass) {
	inspect(pass, func(n ast.Node, _ []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		checkTruncation(pass, call)
		checkMagicDelay(pass, call)
		return true
	})
}

// checkTruncation flags T(x) where x is int64 and T is a narrower
// integer type.
func checkTruncation(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	if !narrowIntKinds[basicKind(tv.Type)] {
		return
	}
	arg := pass.Info.TypeOf(call.Args[0])
	if basicKind(arg) != types.Int64 {
		return
	}
	pass.Reportf(call.Pos(), "truncating conversion %s(%s) narrows an int64 (cycle-valued) quantity; keep time in int64 or annotate //redvet:units with the bound that makes this safe", tv.Type, exprString(call.Args[0]))
}

// checkMagicDelay flags integer literals (other than 0 and 1) inside
// the time argument of engine.Engine.After, the Schedule family
// (Schedule, ScheduleTimed) and engine.Timer.Arm.
func checkMagicDelay(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) < 1 {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type().String()
	switch {
	case strings.HasSuffix(recv, "redcache/internal/engine.Engine"):
		if fn.Name() != "After" && !strings.HasPrefix(fn.Name(), "Schedule") {
			return
		}
	case strings.HasSuffix(recv, "redcache/internal/engine.Timer"):
		if fn.Name() != "Arm" {
			return
		}
	default:
		return
	}
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok {
			return true
		}
		if lit.Value == "0" || lit.Value == "1" {
			return true
		}
		pass.Reportf(lit.Pos(), "magic latency literal %s scheduled on the engine; name it in internal/config so sweeps and ablations can reach it", lit.Value)
		return true
	})
}
