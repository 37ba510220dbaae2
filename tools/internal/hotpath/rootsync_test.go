package hotpath_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geosel/tools/internal/hotpath"
)

const coreDir = "../../../internal/core"

// TestAllocGuardsCoverHotRoots keeps the two enforcement mechanisms in
// sync: every core method driven inside a testing.AllocsPerRun guard in
// alloc_test.go must carry a //geolint:hotpath annotation, so the
// hotalloc analyzer and the escapediff baseline police exactly the code
// the runtime guards measure. A guard on an unannotated method means
// the static layer has a blind spot; fix it by annotating the method.
func TestAllocGuardsCoverHotRoots(t *testing.T) {
	guarded := allocGuardCallees(t)
	declared := declaredFuncs(t)

	hot, err := hotpath.ScanDir(coreDir)
	if err != nil {
		t.Fatal(err)
	}
	hotBase := make(map[string]bool)
	for _, fn := range hot.Funcs {
		name := fn.Name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		hotBase[name] = true
	}

	var checked []string
	for name := range guarded {
		if !declared[name] {
			continue // helper from another package (t.Fatalf etc.)
		}
		checked = append(checked, name)
		if !hotBase[name] {
			t.Errorf("alloc_test.go guards %s with AllocsPerRun, but it is not annotated //geolint:hotpath — the static analyzers are blind to it", name)
		}
	}
	// Guard the guard: if parsing ever stops finding the known roots,
	// this test would pass vacuously.
	for _, must := range []string{"lazyStep", "marginal"} {
		if !guarded[must] {
			t.Errorf("expected AllocsPerRun guard driving %s in alloc_test.go; the extraction is broken or the guard was removed", must)
		}
	}
	if len(checked) == 0 {
		t.Error("no core methods found inside AllocsPerRun guards")
	}
}

// allocGuardCallees returns the method names called inside the function
// literals passed to testing.AllocsPerRun in core's alloc_test.go.
func allocGuardCallees(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(coreDir, "alloc_test.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	guarded := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "AllocsPerRun" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "testing" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok {
					if s, ok := c.Fun.(*ast.SelectorExpr); ok {
						guarded[s.Sel.Name] = true
					}
				}
				return true
			})
		}
		return true
	})
	return guarded
}

// declaredFuncs returns the names of every function and method declared
// in core's non-test files.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(coreDir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(coreDir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				out[fn.Name.Name] = true
			}
		}
	}
	return out
}
