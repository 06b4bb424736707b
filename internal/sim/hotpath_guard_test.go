package sim

// Static guard: the checkpoint path is cold by contract.  A snapshot
// runs only between events, never from inside the per-event hot loop
// — if serialization ever crept into a //redvet:hotpath function,
// every event would pay its allocation and hashing cost.  This test parses the whole module and
// asserts no hotpath-annotated function calls into the checkpoint
// codec, complementing the runtime zero-alloc guards in
// internal/engine/alloc_test.go.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// ckptCallees are the checkpoint-codec entry points a hotpath function
// must never reach: machine snapshotting, component Save/Load, and the
// container codec itself.
var ckptCallees = map[string]bool{
	"checkpoint": true,
	"SaveState":  true, "saveState": true,
	"LoadState": true, "loadState": true,
	"SaveFile": true, "LoadFile": true,
	"Encode": true, "Decode": true,
}

func TestSnapshotPathStaysOffHotpaths(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	hotpaths := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotpathMarked(fd) {
				continue
			}
			hotpaths++
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var callee string
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callee = fun.Name
				case *ast.SelectorExpr:
					callee = fun.Sel.Name
				}
				if ckptCallees[callee] {
					t.Errorf("%s: hotpath function %s calls %s — snapshotting belongs at pause points, not in the event loop",
						fset.Position(call.Pos()), fd.Name.Name, callee)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hotpaths == 0 {
		t.Fatal("found no //redvet:hotpath functions; the guard is scanning the wrong tree")
	}
}

// hotpathMarked reports a //redvet:hotpath directive in the function's
// doc comment.
func hotpathMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), "//redvet:hotpath") {
			return true
		}
	}
	return false
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
