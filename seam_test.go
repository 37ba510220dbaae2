package geosel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingStackBuildsNoSelector keeps the selection seam whole: the
// server, the tile cache, sessions and this facade state their problems
// to core.SelectRegion and never build a core.Selector themselves, so
// whatever is hooked into the seam reaches every request.
func TestServingStackBuildsNoSelector(t *testing.T) {
	files := []string{"geosel.go"}
	for _, dir := range []string{"internal/server", "internal/tilecache", "internal/isos"} {
		more, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(more) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		files = append(files, more...)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Selector" {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" {
					t.Errorf("%s: builds a core.Selector; go through core.SelectRegion", fset.Position(lit.Pos()))
				}
			}
			return true
		})
	}
}
