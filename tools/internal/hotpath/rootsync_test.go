package hotpath_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"geosel/tools/internal/hotpath"
)

const repoRoot = "../../.."

// drivenBy names, for each function on the hot surface that no
// AllocsPerRun guard calls directly, the function of the same package
// that calls it — keyed "pkg.Name", valued "Name", where Name is Func or
// Type.method. The caller's body must hold the call, and the caller must
// itself be witnessed: called inside a guard, or listed here in turn.
// The chain is read from syntax; there is no call graph.
var drivenBy = map[string]string{
	"core.evaluator.absorb":          "Selector.lazyStep",
	"core.absorbMax":                 "evaluator.absorb",
	"core.evaluator.fill":            "evaluator.marginal",
	"core.marginalMax":               "evaluator.marginal",
	"core.residual.marginal":         "Selector.lazyStep",
	"core.residual.walk":             "residual.marginal",
	"core.marginalMaxRecord":         "residual.marginal",
	"geodata.AppendObjectJSON":       "AppendObjectsJSON",
	"geodata.AppendJSONFloat":        "AppendObjectJSON",
	"geodata.appendJSONString":       "AppendObjectJSON",
	"lazyheap.Heap.removeAt":         "Heap.Remove",
	"lazyheap.Heap.siftUp":           "Heap.removeAt",
	"lazyheap.Heap.siftDown":         "Heap.RefreshTop",
	"sim.Rows.rowCosine":             "Rows.Row",
	"sim.Linear.bound":               "Linear.Bound",
	"tilecache.appendKept":           "Cache.AppendSelectJSON",
	"tilecache.Cache.stitch":         "Cache.stitchRegion",
	"tilecache.Cache.stitchRegion":   "Cache.stitchViewport",
	"tilecache.Cache.stitchViewport": "Cache.Select",
}

// TestAllocGuardsCoverHotRoots keeps the two layers that hold the
// hot path allocation-free on one surface, in every package escapediff
// scans. Every annotated root has a runtime witness: an AllocsPerRun
// guard in its package's tests calls it, directly or through a drivenBy
// chain — otherwise only the compiler's escape analysis watches it, and
// that misses an allocation made in a callee. And every package function
// a guard calls is annotated or calls a function on the hot surface —
// otherwise escapediff never reads the code the guard measures.
func TestAllocGuardsCoverHotRoots(t *testing.T) {
	pkgs, err := hotpath.Packages(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	// Guard the guard: if the scan ever stops finding the hot packages,
	// this test would pass vacuously.
	if !slices.Contains(pkgs, "./internal/core") || len(pkgs) < 8 {
		t.Fatalf("hot packages = %v; the scan is broken", pkgs)
	}
	used := make(map[string]bool)
	for _, p := range pkgs {
		dir := filepath.Join(repoRoot, filepath.FromSlash(p))
		hot, err := hotpath.ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg := parsePackage(t, dir)
		surface := make(map[string]bool) // base names of roots and chain members
		for _, fn := range hot.Funcs {
			root, _, _ := strings.Cut(fn.Name, "$") // a hot literal stands for its function
			if err := pkg.witness(root, used); err != nil {
				t.Errorf("%s: hot root %s has no AllocsPerRun witness: %v", p, root, err)
			}
			surface[base(root)] = true
		}
		for key := range drivenBy {
			if name, ok := strings.CutPrefix(key, pkg.name+"."); ok {
				surface[base(name)] = true
			}
		}
		for _, callee := range sortedKeys(pkg.guarded) {
			decls := pkg.byBase[callee]
			if len(decls) == 0 {
				continue // a test helper or another package's function
			}
			if !surface[callee] && !anyCalls(decls, surface) {
				t.Errorf("%s: an AllocsPerRun guard calls %s, which is neither annotated //geolint:hotpath nor a caller of a hot function: escapediff never reads what the guard measures", p, callee)
			}
		}
	}
	for _, key := range sortedKeys(drivenBy) {
		if !used[key] {
			t.Errorf("drivenBy lists %s, which no hot root's witness passes through", key)
		}
	}
}

// pkgInfo is the syntax of one package: its declared functions and the
// names its AllocsPerRun guards call.
type pkgInfo struct {
	name    string
	decls   map[string]*ast.FuncDecl   // by Func or Type.method
	byBase  map[string][]*ast.FuncDecl // by Func or method name
	guarded map[string]bool            // names called inside a guard literal
}

// witness follows name's drivenBy chain until a guard calls the
// function it has reached, checking each link in the caller's body.
// It records the keys it passes through in used.
func (p *pkgInfo) witness(name string, used map[string]bool) error {
	for range len(drivenBy) + 1 {
		key := p.name + "." + name
		caller, ok := drivenBy[key]
		if !ok {
			if p.guarded[base(name)] {
				return nil
			}
			return fmt.Errorf("no guard calls %s, and drivenBy names no caller", name)
		}
		used[key] = true
		d := p.decls[caller]
		if d == nil {
			return fmt.Errorf("drivenBy names %s as the caller of %s, but the package declares no %s", caller, name, caller)
		}
		if !calls(d, map[string]bool{base(name): true}) {
			return fmt.Errorf("drivenBy names %s as the caller of %s, but its body holds no such call", caller, name)
		}
		name = caller
	}
	return fmt.Errorf("drivenBy chain from %s does not end", name)
}

// parsePackage reads dir's declarations and its tests' guard callees.
func parsePackage(t *testing.T, dir string) *pkgInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := &pkgInfo{
		decls:   make(map[string]*ast.FuncDecl),
		byBase:  make(map[string][]*ast.FuncDecl),
		guarded: make(map[string]bool),
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(e.Name(), "_test.go") {
			guardCallees(f, p.guarded)
			continue
		}
		p.name = f.Name.Name
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				name := fn.Name.Name
				if recv := recvName(fn); recv != "" {
					name = recv + "." + name
				}
				p.decls[name] = fn
				p.byBase[fn.Name.Name] = append(p.byBase[fn.Name.Name], fn)
			}
		}
	}
	return p
}

// guardCallees adds to out the names called inside the function
// literals passed to testing.AllocsPerRun in f.
func guardCallees(f *ast.File, out map[string]bool) {
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
			if lit, ok := arg.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if name := calleeName(m); name != "" {
						out[name] = true
					}
					return true
				})
			}
		}
		return true
	})
}

// calls reports whether d's body calls a function whose name is in names.
func calls(d *ast.FuncDecl, names map[string]bool) bool {
	found := false
	ast.Inspect(d.Body, func(n ast.Node) bool {
		if names[calleeName(n)] {
			found = true
		}
		return !found
	})
	return found
}

func anyCalls(decls []*ast.FuncDecl, names map[string]bool) bool {
	for _, d := range decls {
		if calls(d, names) {
			return true
		}
	}
	return false
}

// calleeName is the called name of a call expression — f in f(...) and
// x.f(...) — or "".
func calleeName(n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return ""
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// recvName returns the receiver's base type name, or "".
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// base strips a Type. prefix.
func base(name string) string {
	return name[strings.LastIndexByte(name, '.')+1:]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
