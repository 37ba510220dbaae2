// Package hotpath is the syntax-level reader of the repository's
// hot-path annotation vocabulary, shared by tools that cannot (or need
// not) type-check: escapediff maps compiler escape diagnostics onto hot
// functions and takes its package list from Packages, and the
// cross-check test holds every annotated root to an AllocsPerRun guard.
//
// A function is hot when its declaration carries "//geolint:hotpath" on
// the line above or the same line, when it is a method of a type so
// annotated, or when it is a function literal annotated at its opening
// line. "//geolint:coldpath" on a declaration removes it, and must: a
// declaration-level coldpath on a function that is not hot is an error,
// so the vocabulary holds no token that nothing reads. The package
// performs no call-graph reachability: the annotated set is the stable
// contract surface — reachability would make escape baselines churn with
// every refactor of a helper.
package hotpath

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Func is one hot function's position in a file.
type Func struct {
	File      string // path as given to Scan/ScanDir
	Name      string // decl name, Type.method, or outer$N for literals
	StartLine int
	EndLine   int
}

// Set is the scanned hot surface of a file tree.
type Set struct {
	Funcs []Func
	// directives maps file -> line -> set of geolint directives, for
	// site-level coldpath checks.
	directives map[string]map[int]map[string]bool
}

// Packages returns, as "./internal/..." patterns in lexical order, every
// package directory under root/internal whose non-test files hold a hot
// function. Every directory there is scanned, so a dead coldpath
// directive anywhere under internal is an error.
func Packages(root string) ([]string, error) {
	var pkgs []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		set, err := ScanDir(path)
		if err != nil {
			return err
		}
		if len(set.Funcs) > 0 {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			pkgs = append(pkgs, "./"+filepath.ToSlash(rel))
		}
		return nil
	})
	return pkgs, err
}

// ScanDir parses every non-test .go file directly inside each dir and
// returns the merged hot set. File paths in the result are the join of
// dir and the base name. A declaration-level coldpath that removes
// nothing from the hot set is an error.
func ScanDir(dirs ...string) (*Set, error) {
	set := &Set{directives: make(map[string]map[int]map[string]bool)}
	var dead []error
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %w", path, err)
			}
			dead = append(dead, set.scanFile(fset, path, f)...)
		}
	}
	if len(dead) > 0 {
		return nil, errors.Join(dead...)
	}
	sort.Slice(set.Funcs, func(i, j int) bool {
		a, b := set.Funcs[i], set.Funcs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.StartLine < b.StartLine
	})
	return set, nil
}

// scanFile records the file's directives and hot functions, and returns
// an error for each declaration-level coldpath on a function that is not
// hot.
func (s *Set) scanFile(fset *token.FileSet, path string, f *ast.File) (dead []error) {
	lines := make(map[int]map[string]bool)
	s.directives[path] = lines
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "geolint:") {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if lines[line] == nil {
				lines[line] = make(map[string]bool)
			}
			for _, d := range strings.Split(strings.TrimPrefix(text, "geolint:"), ",") {
				if d = strings.TrimSpace(d); d != "" {
					lines[line][d] = true
				}
			}
		}
	}
	directiveAt := func(pos token.Pos, directive string) bool {
		line := fset.Position(pos).Line
		return lines[line][directive] || lines[line-1][directive]
	}

	hotTypes := make(map[string]bool)
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				if directiveAt(ts.Pos(), "hotpath") || directiveAt(gd.Pos(), "hotpath") {
					hotTypes[ts.Name.Name] = true
				}
			}
		}
	}

	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		name := fn.Name.Name
		recv := recvTypeName(fn)
		if recv != "" {
			name = recv + "." + name
		}
		hot := directiveAt(fn.Pos(), "hotpath") || (recv != "" && hotTypes[recv])
		cold := directiveAt(fn.Pos(), "coldpath")
		if cold && !hot {
			dead = append(dead, fmt.Errorf("%s:%d: //geolint:coldpath on %s removes nothing: it is neither annotated //geolint:hotpath nor a method of a hot type",
				path, fset.Position(fn.Pos()).Line, name))
		}
		if hot && !cold {
			s.Funcs = append(s.Funcs, Func{
				File:      path,
				Name:      name,
				StartLine: fset.Position(fn.Pos()).Line,
				EndLine:   fset.Position(fn.End()).Line,
			})
		}
		// Hot literals inside this decl, named outer$1, outer$2, ... in
		// source order — stable under edits that keep literal order.
		ord := 0
		ast.Inspect(fn, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if directiveAt(lit.Pos(), "hotpath") && !directiveAt(lit.Pos(), "coldpath") {
				ord++
				s.Funcs = append(s.Funcs, Func{
					File:      path,
					Name:      fmt.Sprintf("%s$%d", name, ord),
					StartLine: fset.Position(lit.Pos()).Line,
					EndLine:   fset.Position(lit.End()).Line,
				})
			}
			return true
		})
	}
	return dead
}

// recvTypeName returns the receiver's base type name, or "".
func recvTypeName(d *ast.FuncDecl) string {
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

// Enclosing returns the innermost hot function containing file:line.
func (s *Set) Enclosing(file string, line int) (Func, bool) {
	var best Func
	found := false
	for _, fn := range s.Funcs {
		if fn.File != file || line < fn.StartLine || line > fn.EndLine {
			continue
		}
		if !found || fn.StartLine >= best.StartLine {
			best, found = fn, true
		}
	}
	return best, found
}

// SiteCold reports whether file:line (or the line above) carries a
// coldpath directive, acknowledging a deliberate allocation site.
func (s *Set) SiteCold(file string, line int) bool {
	lines := s.directives[file]
	return lines[line]["coldpath"] || lines[line-1]["coldpath"]
}
