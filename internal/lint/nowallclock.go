package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// NoWallClock flags wall-clock reads and unseeded (global) randomness
// in simulation packages.  Simulated time advances only through
// engine.Engine.Now/After/Schedule; any time.Now (or derivative) and
// any use of math/rand's global generator makes a run irreproducible.
//
// Seeded generators built with rand.New(rand.NewSource(seed)) — the
// workload-generator idiom — are allowed, as long as the seed itself is
// not derived from the wall clock (time.Now inside the seed expression
// is still flagged by the time rule).
//
// Justified wall-clock use (e.g. progress reporting in a CLI) carries a
// `//redvet:wallclock` annotation.
//
// An import boundary backs the per-call check: only the command
// packages (redcache/cmd/...) may import "time" at all, so no
// time-derived value can exist in the simulator, the library API or
// the examples for a later refactor to leak into simulated state.
var NoWallClock = &Analyzer{
	Name:      "nowallclock",
	Doc:       "flags time.Now, global/unseeded math/rand, and \"time\" imports outside redcache/cmd",
	Directive: "wallclock",
	Scope: func(path string) bool {
		return !strings.HasPrefix(path, "redcache/internal/lint") ||
			strings.HasPrefix(path, "redcache/internal/lint/testdata/src/nowallclock")
	},
	Run: runNoWallClock,
}

// timeImporters is the package-path prefix allowed to import "time".
const timeImporters = "redcache/cmd/"

// wallClockFuncs are the time package entry points that observe or
// depend on the host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "After": true,
	"AfterFunc": true, "Sleep": true,
}

// seededRandCtors are the only math/rand package-level entry points a
// deterministic simulator may touch: explicit generator construction.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func runNoWallClock(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.Path(), timeImporters) {
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"time"` {
					pass.Reportf(imp.Pos(), "package %s imports \"time\"; only %s... may read the host clock, simulated time comes from engine.Engine.Now", pass.Pkg.Path(), timeImporters)
				}
			}
		}
	}
	inspect(pass, func(n ast.Node, _ []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		// Only package-level functions qualify (rand.Intn vs rng.Intn:
		// the latter's Intn is a method, whose Pkg-level parent differs).
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		switch obj.Pkg().Path() {
		case "time":
			if wallClockFuncs[obj.Name()] {
				pass.ReportFix(sel.Pos(),
					"eng.Now() // simulated cycle clock; plumb the *engine.Engine into this component",
					"time.%s reads the wall clock; simulation time must come from engine.Engine.Now (annotate //redvet:wallclock if this is host-side tooling)", obj.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededRandCtors[obj.Name()] {
				pass.ReportFix(sel.Pos(),
					fmt.Sprintf("rng := rand.New(rand.NewSource(cfg.Seed))\nrng.%s(...) // per-component seeded generator", obj.Name()),
					"%s.%s uses the global random generator; build a seeded generator with rand.New(rand.NewSource(seed)) so runs are reproducible", pathBase(obj.Pkg().Path()), obj.Name())
			}
		}
		return true
	})
}

func pathBase(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// exprString renders a (small) expression for diagnostics.
func exprString(e ast.Expr) string {
	var b strings.Builder
	_ = printer.Fprint(&b, token.NewFileSet(), e)
	s := b.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}
