package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// StateFold proves fold-exhaustiveness: every fold/merge/snapshot/reset
// function over a //redvet:state type or a stats-shaped accumulator
// struct must handle every field of that struct — fold it, merge it,
// reset it, or carry an explicit //redvet:foldexempt justification on
// the field declaration.  Add a field to a stats struct, forget the
// fold line, and the totals silently lose it; statefold catches that at
// lint time.  statefold is the only reader of the //redvet:state
// marker.
//
// The proof is transitive: every function exports FoldCovers facts (the
// per-type field sets it folds on receiver/parameter-rooted values), so
// a fold that delegates to helpers — in the same package or
// another — inherits their coverage.  Obligations, by contrast, are
// strictly local: only functions whose name starts with a fold-family
// prefix (fold, merge, snapshot, delta, reset, save, load) are required
// to be exhaustive, and only over the bases they actually accumulate
// into.  The save/load families extend the contract to the checkpoint
// codec: SaveState's reads and LoadState's stores must each touch every
// field of a checkpointed struct, so adding a field without updating
// the codec fails the lint instead of silently corrupting restores.
//
// Two deliberate asymmetries keep the proof honest:
//
//   - a zero-composite store (`o.total = Shadow{}`) is inert: it
//     resets state but grants no coverage and creates no obligation, so
//     a trailing reset can never mask a deleted fold line;
//   - a whole-value copy (`return *i`, `*dst = *src`) covers every
//     field by construction but obligates nothing.
//
// Keyed composite literals of candidate types are their own obligated
// bases: `return Delta{Reads: ...}` must list every Delta field.
var StateFold = &Analyzer{
	Name: "statefold",
	Doc: "proves fold/merge/snapshot/reset and checkpoint save/load functions " +
		"field-exhaustive over //redvet:state and stats structs, transitively via " +
		"FoldCovers facts; dropped fields need //redvet:foldexempt with a justification",
	Directive: "foldexempt",
	Scope:     statefoldScope,
	Facts:     statefoldFacts,
	Run:       statefoldRun,
}

// statefoldPkgs is the fold-exhaustiveness proof surface: the
// simulator core and the statistics package.  The experiments harness
// holds only Results values, never machine state.
var statefoldPkgs = []string{
	"redcache/internal/engine",
	"redcache/internal/sim",
	"redcache/internal/dram",
	"redcache/internal/hbm",
	"redcache/internal/cache",
	"redcache/internal/cpu",
	"redcache/internal/mem",
	"redcache/internal/obs",
	"redcache/internal/fault",
	"redcache/internal/stats",
}

func statefoldScope(path string) bool {
	if strings.HasPrefix(path, "redcache/internal/lint") {
		return strings.HasPrefix(path, "redcache/internal/lint/testdata/src/statefold")
	}
	for _, p := range statefoldPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// foldFamilies are the function-name prefixes that carry an
// exhaustiveness obligation.  save/load cover the checkpoint codec
// pairs (SaveState/LoadState): a field added to a checkpointed struct
// without a matching serialize/deserialize line is the restore-time
// twin of the dropped-fold bug.
var foldFamilies = []string{"fold", "merge", "snapshot", "delta", "reset", "save", "load"}

func foldFamily(name string) string {
	l := strings.ToLower(name)
	for _, fam := range foldFamilies {
		if strings.HasPrefix(l, fam) {
			return fam
		}
	}
	return ""
}

// statsShaped reports whether t is a plain accumulator struct: at least
// one field, every field a basic value, an array of shaped values, or a
// nested stats-shaped struct.  Pointers, slices, maps, funcs and
// channels disqualify — they carry identity or variable length, and the
// fold-exhaustiveness contract targets value accumulators.
func statsShaped(t types.Type, depth int) bool {
	if t == nil || depth > 3 {
		return false
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if !shapedField(st.Field(i).Type(), depth) {
			return false
		}
	}
	return true
}

func shapedField(t types.Type, depth int) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Array:
		return shapedField(u.Elem(), depth)
	case *types.Struct:
		return statsShaped(t, depth+1)
	}
	return false
}

// foldCandidate returns the named struct behind t (derefing one
// pointer) if it is a fold-exhaustiveness subject: a stats-shaped value
// accumulator or a //redvet:state struct.
func foldCandidate(facts *FactStore, t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	if facts.IsState(named.Obj().Pkg().Path(), named.Obj().Name()) {
		return named
	}
	if statsShaped(named, 0) {
		return named
	}
	return nil
}

// foldTypeKey is the cross-package FoldCovers key for a candidate type.
func foldTypeKey(n *types.Named) string {
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// foldChain resolves e to (root object, field path), looking through
// parens, derefs, indexing and unary &.  ok is false when e is not a
// field-selector chain over a single root identifier.
func foldChain(info *types.Info, e ast.Expr) (types.Object, []string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj, nil, true
		}
		if obj := info.Defs[e]; obj != nil {
			return obj, nil, true
		}
	case *ast.ParenExpr:
		return foldChain(info, e.X)
	case *ast.StarExpr:
		return foldChain(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return foldChain(info, e.X)
		}
	case *ast.IndexExpr:
		return foldChain(info, e.X)
	case *ast.SelectorExpr:
		// Only field selections extend a chain; method values and
		// package-qualified identifiers do not.
		if s, ok := info.Selections[e]; ok && s.Kind() == types.FieldVal {
			root, path, ok2 := foldChain(info, e.X)
			if !ok2 {
				return nil, nil, false
			}
			return root, append(path, e.Sel.Name), true
		}
	}
	return nil, nil, false
}

// chainType walks the field path from t, unwrapping pointers, slices
// and arrays at each hop, and returns the final field type (nil when
// the path does not resolve — promoted fields are not chased).
func chainType(t types.Type, path []string) types.Type {
	for _, f := range path {
		t = derefElem(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		var next types.Type
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == f {
				next = st.Field(i).Type()
				break
			}
		}
		if next == nil {
			return nil
		}
		t = next
	}
	return t
}

func derefElem(t types.Type) types.Type {
	for i := 0; i < 8; i++ {
		switch u := types.Unalias(t).Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return t
		}
	}
	return t
}

// foldRef is an alias target: a local variable standing for a chain
// rooted elsewhere (t := &o.total).
type foldRef struct {
	root types.Object
	path []string
}

// foldBase is one tracked (root, path) value of candidate type within a
// function, with the fields proven handled on it.  A nil root marks a
// keyed composite-literal base.
type foldBase struct {
	root      types.Object
	path      []string
	typ       *types.Named
	covered   map[string]bool // field name, or "*" for a whole-value copy
	obligated bool
	pos       token.Pos
}

func (b *foldBase) desc() string {
	if b.root == nil {
		return b.typ.Obj().Name() + " literal"
	}
	name := b.root.Name()
	if len(b.path) > 0 {
		name += "." + strings.Join(b.path, ".")
	}
	return name
}

// foldScan is the per-function coverage analysis.
type foldScan struct {
	pass     *Pass
	facts    *FactStore
	decl     *ast.FuncDecl
	fn       *types.Func
	roots    map[types.Object]bool
	aliases  map[types.Object]foldRef
	poisoned map[types.Object]bool
	bases    map[string]*foldBase // nil entries cache non-candidates
	changed  bool
	// readsObligate flips the obligation source for save-family
	// functions: a serializer's field handling IS the read (w.I64(c.hits)),
	// so chain reads obligate their base exactly as stores do elsewhere.
	// The `_ = c.wiring` idiom marks fields that are deliberately rebuilt,
	// not serialized — the read grants coverage like any other.
	readsObligate bool
}

func newFoldScan(pass *Pass, decl *ast.FuncDecl) *foldScan {
	fn, _ := pass.Info.Defs[decl.Name].(*types.Func)
	if fn == nil || decl.Body == nil {
		return nil
	}
	f := &foldScan{
		pass:          pass,
		facts:         pass.EnsureFacts(),
		decl:          decl,
		fn:            fn,
		roots:         make(map[types.Object]bool),
		aliases:       make(map[types.Object]foldRef),
		poisoned:      make(map[types.Object]bool),
		bases:         make(map[string]*foldBase),
		readsObligate: foldFamily(fn.Name()) == "save",
	}
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		f.roots[r] = true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		f.roots[sig.Params().At(i)] = true
	}
	return f
}

func (f *foldScan) resolve(root types.Object, path []string) (types.Object, []string) {
	for i := 0; i < 4; i++ {
		ref, ok := f.aliases[root]
		if !ok {
			break
		}
		joined := make([]string, 0, len(ref.path)+len(path))
		joined = append(joined, ref.path...)
		joined = append(joined, path...)
		root, path = ref.root, joined
	}
	return root, path
}

func (f *foldScan) base(root types.Object, path []string) *foldBase {
	if root == nil {
		return nil
	}
	key := fmt.Sprintf("%d.%s", root.Pos(), strings.Join(path, "."))
	if b, ok := f.bases[key]; ok {
		return b
	}
	named := foldCandidate(f.facts, chainType(root.Type(), path))
	if named == nil {
		f.bases[key] = nil
		return nil
	}
	b := &foldBase{
		root:    root,
		path:    append([]string{}, path...),
		typ:     named,
		covered: make(map[string]bool),
	}
	f.bases[key] = b
	return b
}

func (f *foldScan) cover(b *foldBase, field string) {
	if b == nil || b.covered[field] {
		return
	}
	b.covered[field] = true
	f.changed = true
}

// touch records coverage at every split point along a resolved chain
// whose owner type is a candidate; the obligation (when requested)
// lands only on the leaf field's direct owner — never on an enclosing
// component that merely contains the accumulator.
func (f *foldScan) touch(root types.Object, path []string, obligate bool, pos token.Pos) {
	root, path = f.resolve(root, path)
	for i := 0; i < len(path); i++ {
		b := f.base(root, path[:i])
		if b == nil {
			continue
		}
		f.cover(b, path[i])
		if obligate && i == len(path)-1 && !b.obligated {
			b.obligated = true
			b.pos = pos
			f.changed = true
		}
	}
}

func (f *foldScan) coverAll(root types.Object, path []string) {
	root, path = f.resolve(root, path)
	if b := f.base(root, path); b != nil {
		f.cover(b, "*")
	}
}

func (f *foldScan) alias(obj, root types.Object, path []string) {
	if f.poisoned[obj] {
		return
	}
	if ref, ok := f.aliases[obj]; ok {
		if ref.root == root && strings.Join(ref.path, ".") == strings.Join(path, ".") {
			return
		}
		delete(f.aliases, obj)
		f.poisoned[obj] = true
		return
	}
	f.aliases[obj] = foldRef{root: root, path: append([]string{}, path...)}
	f.changed = true
}

// zeroComposite reports whether e is an empty composite literal of a
// struct type (possibly behind &) — the canonical inert reset value.
func zeroComposite(info *types.Info, e ast.Expr) bool {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok || len(cl.Elts) != 0 {
		return false
	}
	t := info.TypeOf(cl)
	if t == nil {
		return false
	}
	_, isStruct := t.Underlying().(*types.Struct)
	return isStruct
}

func (f *foldScan) assign(n *ast.AssignStmt) {
	simple := n.Tok == token.ASSIGN || n.Tok == token.DEFINE
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0]
		}
		// Alias discovery: a local bound to a chain (t := &o.total)
		// stands for that chain, so later t.X mentions resolve to the
		// underlying base.  Rebinding to anything else poisons it.
		if simple && rhs != nil {
			if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				obj := f.pass.Info.Defs[id]
				if obj == nil {
					obj = f.pass.Info.Uses[id]
				}
				if obj != nil && !f.roots[obj] {
					if r, p, ok := foldChain(f.pass.Info, rhs); ok {
						if r2, p2 := f.resolve(r, p); r2 != obj {
							f.alias(obj, r2, p2)
						}
					}
				}
			}
		}
		// Zero-composite stores are inert: `o.total = Shadow{}`
		// resets state but proves nothing, so a trailing reset can
		// never mask a deleted fold line.
		if simple && rhs != nil && zeroComposite(f.pass.Info, rhs) {
			continue
		}
		if r, p, ok := foldChain(f.pass.Info, lhs); ok {
			if len(p) == 0 {
				// Whole-value store: `*dst = *src` covers every field of
				// both sides by construction, obligating neither.
				if rhs != nil {
					if rr, rp, rok := foldChain(f.pass.Info, rhs); rok {
						f.coverAll(r, p)
						f.coverAll(rr, rp)
					}
				}
			} else {
				f.touch(r, p, true, lhs.Pos())
			}
		}
	}
}

// composite treats a keyed composite literal of a candidate type as its
// own obligated base: `return Delta{Reads: ...}` must list every field
// (or the missing ones must be //redvet:foldexempt).  Unkeyed literals
// are exhaustive by Go's own rules; empty literals are inert zeroes.
func (f *foldScan) composite(cl *ast.CompositeLit) {
	if len(cl.Elts) == 0 {
		return
	}
	named := foldCandidate(f.facts, f.pass.Info.TypeOf(cl))
	if named == nil {
		return
	}
	keyed := false
	for _, el := range cl.Elts {
		if _, ok := el.(*ast.KeyValueExpr); ok {
			keyed = true
			break
		}
	}
	if !keyed {
		return
	}
	key := fmt.Sprintf("lit@%d", cl.Pos())
	b := f.bases[key]
	if b == nil {
		b = &foldBase{typ: named, covered: make(map[string]bool), obligated: true, pos: cl.Pos()}
		f.bases[key] = b
		f.changed = true
	}
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				f.cover(b, id.Name)
			}
		}
	}
}

// call applies the callee's FoldCovers facts to the receiver and every
// chain-shaped argument, making helper delegation count as coverage.
func (f *foldScan) call(n *ast.CallExpr) {
	callee := staticCallee(f.pass.Info, n)
	if callee == nil {
		return
	}
	ff := f.facts.Func(callee)
	if ff == nil || len(ff.FoldCovers) == 0 {
		return
	}
	exprs := n.Args
	if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
		exprs = append([]ast.Expr{sel.X}, exprs...)
	}
	for _, e := range exprs {
		r, p, ok := foldChain(f.pass.Info, e)
		if !ok {
			continue
		}
		r, p = f.resolve(r, p)
		b := f.base(r, p)
		if b == nil {
			continue
		}
		if fields, ok := ff.FoldCovers[foldTypeKey(b.typ)]; ok {
			for _, fd := range fields {
				f.cover(b, fd)
			}
		}
	}
}

// scan iterates the body to a coverage fixpoint (aliases discovered in
// one round feed chains resolved in the next).
func (f *foldScan) scan() {
	for round := 0; round < 6; round++ {
		f.changed = false
		ast.Inspect(f.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				f.assign(n)
			case *ast.IncDecStmt:
				if r, p, ok := foldChain(f.pass.Info, n.X); ok && len(p) > 0 {
					f.touch(r, p, true, n.X.Pos())
				}
			case *ast.SelectorExpr:
				// Every chain read grants coverage (the source side of a
				// fold); obligations come only from stores above — except
				// in save-family functions, where serializing a field IS a
				// read and every touched base must be exhaustive.
				if r, p, ok := foldChain(f.pass.Info, n); ok && len(p) > 0 {
					f.touch(r, p, f.readsObligate, n.Pos())
				}
			case *ast.ReturnStmt:
				for _, e := range n.Results {
					if r, p, ok := foldChain(f.pass.Info, e); ok && len(p) == 0 {
						f.coverAll(r, p)
					}
				}
			case *ast.CompositeLit:
				f.composite(n)
			case *ast.CallExpr:
				f.call(n)
			}
			return true
		})
		if !f.changed {
			break
		}
	}
}

// exportCovers unions per-type coverage over receiver/parameter-rooted
// bases — the callee-side half of a transitive fold proof.
func (f *foldScan) exportCovers() map[string][]string {
	acc := make(map[string]map[string]bool)
	for _, b := range f.bases {
		if b == nil || b.root == nil || len(b.covered) == 0 {
			continue
		}
		r, _ := f.resolve(b.root, nil)
		if !f.roots[r] {
			continue
		}
		tk := foldTypeKey(b.typ)
		m := acc[tk]
		if m == nil {
			m = make(map[string]bool)
			acc[tk] = m
		}
		for fd := range b.covered {
			m[fd] = true
		}
	}
	if len(acc) == 0 {
		return nil
	}
	out := make(map[string][]string, len(acc))
	for tk, m := range acc {
		fields := make([]string, 0, len(m))
		for fd := range m {
			fields = append(fields, fd)
		}
		sort.Strings(fields)
		out[tk] = fields
	}
	return out
}

// fieldDirective finds a //redvet:<tok> directive on the line of pos or
// the line above (the field-declaration analogue of funcMarked).
func fieldDirective(pass *Pass, pos token.Pos, tok string) (Directive, bool) {
	p := pass.Fset.Position(pos)
	lines := pass.directives[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.Tok == tok {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// typeDirective finds a //redvet:<tok> directive attached to a type
// declaration (in the GenDecl or TypeSpec doc comment, or on the line
// above the spec), mirroring funcMarked for types.  Annotate
// single-type declarations: a directive in the doc comment of a grouped
// `type (...)` block marks every type in the block.
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

// statefoldFacts exports the annotation vocabulary (state types,
// foldexempt fields) and per-function FoldCovers, iterating the package
// to a fixpoint so helper order doesn't matter.
func statefoldFacts(pass *Pass) {
	facts := pass.EnsureFacts()
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if dir, ok := typeDirective(pass, gd, ts, "state"); ok {
					facts.MarkState(pass.Pkg.Path(), ts.Name.Name, dir.Just)
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					dir, ok := fieldDirective(pass, fld.Pos(), "foldexempt")
					if !ok {
						continue
					}
					for _, name := range fld.Names {
						facts.MarkFoldExempt(pass.Pkg.Path(), ts.Name.Name+"."+name.Name, dir.Just)
					}
				}
			}
		}
	}
	decls := funcDecls(pass)
	for round := 0; round < 4; round++ {
		changed := false
		for fn, decl := range decls {
			fs := newFoldScan(pass, decl)
			if fs == nil {
				continue
			}
			fs.scan()
			covers := fs.exportCovers()
			if covers == nil {
				continue
			}
			ff := facts.EnsureFunc(fn)
			if !reflect.DeepEqual(ff.FoldCovers, covers) {
				ff.FoldCovers = covers
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// statefoldRun replays the coverage analysis over fold-family functions
// and reports every obligated-but-unhandled field.
func statefoldRun(pass *Pass) {
	facts := pass.EnsureFacts()
	for fn, decl := range funcDecls(pass) {
		fam := foldFamily(fn.Name())
		if fam == "" || decl.Body == nil {
			continue
		}
		fs := newFoldScan(pass, decl)
		if fs == nil {
			continue
		}
		fs.scan()
		var bases []*foldBase
		for _, b := range fs.bases {
			if b != nil && b.obligated {
				bases = append(bases, b)
			}
		}
		sort.Slice(bases, func(i, j int) bool {
			if bases[i].pos != bases[j].pos {
				return bases[i].pos < bases[j].pos
			}
			return bases[i].desc() < bases[j].desc()
		})
		for _, b := range bases {
			st, ok := b.typ.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			tpkg := b.typ.Obj().Pkg().Path()
			for i := 0; i < st.NumFields(); i++ {
				name := st.Field(i).Name()
				switch {
				case b.covered["*"] || b.covered[name]:
					pass.Proof.Fold++
				case facts.IsFoldExempt(tpkg, b.typ.Obj().Name()+"."+name):
					pass.Proof.Fold++
				default:
					pass.Reportf(decl.Name.Pos(),
						"%s-family function %s drops field %s.%s of base %s: fold, merge or reset it, or annotate the field //redvet:foldexempt with a justification",
						fam, fn.Name(), b.typ.Obj().Name(), name, b.desc())
				}
			}
		}
	}
}
