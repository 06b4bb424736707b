package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShardLocal is the ownership/escape analyzer behind the sharded-engine
// plan: a type annotated //redvet:shardlocal (per-channel DRAM bank
// state, FR-FCFS queues, the HBM tag store and RCU CAM) is proven
// confined to one owning component, so a per-channel shard can mutate
// it without synchronization.  Confinement is violated by:
//
//   - a package-level variable reaching the type (shared from anywhere),
//   - a pointer, channel, or pointer-element container field in a
//     struct that is not itself shard-local (value embedding — T, []T,
//     [N]T, map[K]T — is ownership and passes),
//   - sending the type, or a pointer to it, on a channel,
//   - handing it to a goroutine (as a `go` argument or a closure
//     capture),
//   - passing a reference to a function outside the type's declaring
//     package.
//
// Sanctioned cross-shard flow goes through functions annotated
// //redvet:mergepoint (the deterministic merge at the shard boundary):
// a mergepoint callee may take cross-shard references, and inside a
// mergepoint function sends and cross-package passes are allowed.  The
// annotations are exported as facts (PackageFacts.ShardLocal,
// FuncFacts.Mergepoint) so the future sharded engine — and any later
// analyzer — can rely on them transitively.
//
// Interface boxing is deliberately out of scope: the hbm constructors
// legitimately return controllers behind an interface, and the boxed
// controller is still owned by exactly one shard.  Dynamic calls remain
// component boundaries, as in noalloc and detsched.
//
// Annotate single-type declarations: a //redvet:shardlocal directive in
// the doc comment of a grouped `type (...)` block would mark every type
// in the block.
var ShardLocal = &Analyzer{
	Name: "shardlocal",
	Doc: "proves //redvet:shardlocal types confined to one owning component: " +
		"no globals, foreign pointer fields, channel sends, goroutine hand-offs " +
		"or cross-package references outside //redvet:mergepoint functions",
	Directive: "mergepoint",
	Scope:     shardlocalScope,
	Facts:     shardlocalFacts,
	Run:       shardlocalRun,
}

// shardlocalPkgs is the confinement-proof surface: the simulator core.
// The experiments harness holds only Results values, never shard state.
var shardlocalPkgs = []string{
	"redcache/internal/engine",
	"redcache/internal/sim",
	"redcache/internal/dram",
	"redcache/internal/hbm",
	"redcache/internal/cache",
	"redcache/internal/cpu",
	"redcache/internal/mem",
	"redcache/internal/obs",
	"redcache/internal/fault",
}

func shardlocalScope(path string) bool {
	for _, p := range shardlocalPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return strings.HasPrefix(path, "redcache/internal/lint/testdata/src/shardlocal")
}

// typeDirective finds a //redvet:<tok> directive attached to a type
// declaration (in the GenDecl or TypeSpec doc comment, or on the line
// above the spec), mirroring funcMarked for types.
func typeDirective(pass *Pass, gd *ast.GenDecl, ts *ast.TypeSpec, tok string) (Directive, bool) {
	pos := pass.Fset.Position(ts.Pos())
	from := pos.Line - 1
	if gd.Doc != nil {
		if l := pass.Fset.Position(gd.Doc.Pos()).Line; l < from {
			from = l
		}
	}
	if ts.Doc != nil {
		if l := pass.Fset.Position(ts.Doc.Pos()).Line; l < from {
			from = l
		}
	}
	lines := pass.directives[pos.Filename]
	for line := from; line <= pos.Line; line++ {
		for _, d := range lines[line] {
			if d.Tok == tok {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// shardlocalFacts exports the annotation vocabulary: shard-local type
// names per package and the mergepoint marker per function.
func shardlocalFacts(pass *Pass) {
	facts := pass.EnsureFacts()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if dir, ok := typeDirective(pass, gd, ts, "shardlocal"); ok {
					facts.MarkShardLocal(pass.Pkg.Path(), ts.Name.Name, dir.Just)
				}
			}
		}
	}
	for fn, decl := range funcDecls(pass) {
		if pass.funcMarked(decl, "mergepoint") {
			facts.EnsureFunc(fn).Mergepoint = true
		}
	}
}

// shardNamed returns t as a shard-local named type, or nil.
func shardNamed(facts *FactStore, t types.Type) *types.Named {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if facts.IsShardLocal(named.Obj().Pkg().Path(), named.Obj().Name()) {
		return named
	}
	return nil
}

// containsShard finds a shard-local type reachable from t through any
// container shape (pointer, slice, array, map, channel), without
// recursing into struct fields — those are rule-checked where the
// struct is declared.
func containsShard(facts *FactStore, t types.Type, depth int) *types.Named {
	if t == nil || depth > 4 {
		return nil
	}
	t = types.Unalias(t)
	if n := shardNamed(facts, t); n != nil {
		return n
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return containsShard(facts, u.Elem(), depth+1)
	case *types.Slice:
		return containsShard(facts, u.Elem(), depth+1)
	case *types.Array:
		return containsShard(facts, u.Elem(), depth+1)
	case *types.Map:
		return containsShard(facts, u.Elem(), depth+1)
	case *types.Chan:
		return containsShard(facts, u.Elem(), depth+1)
	}
	return nil
}

// aliasReach finds a shard-local type reachable from t through a
// pointer or channel — the shapes that make a field or argument an
// alias rather than owned storage.  Value embedding (T, []T, [N]T,
// map[K]T) passes: the memory is owned by the embedding value.
func aliasReach(facts *FactStore, t types.Type, depth int) *types.Named {
	if t == nil || depth > 4 {
		return nil
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer:
		return containsShard(facts, u.Elem(), depth+1)
	case *types.Chan:
		return containsShard(facts, u.Elem(), depth+1)
	case *types.Slice:
		return aliasReach(facts, u.Elem(), depth+1)
	case *types.Array:
		return aliasReach(facts, u.Elem(), depth+1)
	case *types.Map:
		return aliasReach(facts, u.Elem(), depth+1)
	}
	return nil
}

func shardlocalRun(pass *Pass) {
	facts := pass.EnsureFacts()

	// Declaration-level rules: package vars, foreign pointer fields, and
	// annotation hygiene (a shardlocal directive attached to no type).
	covered := map[token.Pos]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			switch gd.Tok {
			case token.VAR:
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						obj := pass.Info.Defs[name]
						if obj == nil {
							continue
						}
						if n := containsShard(facts, obj.Type(), 0); n != nil {
							pass.Reportf(name.Pos(),
								"package-level var %s reaches shard-local type %s; shard-local state must live inside its owning component",
								name.Name, n.Obj().Name())
						}
					}
				}
			case token.TYPE:
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if dir, ok := typeDirective(pass, gd, ts, "shardlocal"); ok {
						covered[dir.Pos] = true
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok || facts.IsShardLocal(pass.Pkg.Path(), ts.Name.Name) {
						continue
					}
					for _, fld := range st.Fields.List {
						if n := aliasReach(facts, pass.Info.TypeOf(fld.Type), 0); n != nil {
							pass.Reportf(fld.Pos(),
								"field of %s aliases shard-local type %s through a pointer or channel; embed it by value or annotate %s //redvet:shardlocal too",
								ts.Name.Name, n.Obj().Name(), ts.Name.Name)
						}
					}
				}
			}
		}
	}
	for file, lines := range pass.directives {
		for _, ds := range lines {
			for _, d := range ds {
				if d.Tok == "shardlocal" && !covered[d.Pos] && !pass.generated[file] {
					pass.Reportf(d.Pos, "shardlocal annotation is not attached to a type declaration")
				}
			}
		}
	}

	// Flow rules, per function: channel sends, goroutine hand-offs, and
	// cross-package references outside mergepoint functions.
	for fn, decl := range funcDecls(pass) {
		if decl.Body == nil {
			continue
		}
		merge := pass.funcMarked(decl, "mergepoint")
		if !merge {
			if ff := facts.Func(fn); ff != nil && ff.Mergepoint {
				merge = true
			}
		}
		outer := decl
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if merge {
					return true
				}
				if sn := containsShard(facts, pass.Info.TypeOf(n.Value), 0); sn != nil {
					pass.Reportf(n.Pos(),
						"channel send carries shard-local %s out of its owner; route cross-shard flow through a //redvet:mergepoint function",
						sn.Obj().Name())
				}
			case *ast.GoStmt:
				for _, arg := range n.Call.Args {
					if sn := containsShard(facts, pass.Info.TypeOf(arg), 0); sn != nil {
						pass.Reportf(arg.Pos(),
							"goroutine argument hands shard-local %s to another scheduling domain", sn.Obj().Name())
					}
				}
				if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
					if name, sn := capturedShard(pass, facts, lit, outer); sn != nil {
						pass.Reportf(lit.Pos(),
							"goroutine closure captures shard-local %s (via %s)", sn.Obj().Name(), name)
					}
				}
			case *ast.CallExpr:
				if merge {
					return true
				}
				callee := staticCallee(pass.Info, n)
				if callee == nil || callee.Pkg() == nil {
					return true
				}
				if ff := facts.Func(callee); ff != nil && ff.Mergepoint {
					return true
				}
				for _, arg := range n.Args {
					sn := aliasReach(facts, pass.Info.TypeOf(arg), 0)
					if sn == nil {
						continue
					}
					if callee.Pkg().Path() == sn.Obj().Pkg().Path() {
						continue // the owning package's own plumbing
					}
					pass.Reportf(arg.Pos(),
						"passes shard-local %s by reference to %s; only //redvet:mergepoint functions may take cross-shard references",
						sn.Obj().Name(), FuncKey(callee))
				}
			}
			return true
		})
	}
}

// capturedShard reports the first shard-local variable a goroutine's
// func literal captures from its enclosing function.
func capturedShard(pass *Pass, facts *FactStore, lit *ast.FuncLit, outer ast.Node) (string, *types.Named) {
	var name string
	var found *types.Named
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level: rule-checked at its declaration
		}
		if v.Pos() < lit.Pos() && v.Pos() >= outer.Pos() && v.Pos() < outer.End() {
			if sn := containsShard(facts, v.Type(), 0); sn != nil {
				name, found = v.Name(), sn
				return false
			}
		}
		return true
	})
	return name, found
}
