package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	Error      *struct{ Err string }
}

// loadCache memoizes Load per (dir, patterns): one `go list -json
// -export` subprocess and one type-check per distinct package set per
// process, shared by every analyzer and every repeated run. Loaded
// packages are read-only after construction, so sharing is safe.
var loadCache = struct {
	sync.Mutex
	m map[string][]*Package
}{m: make(map[string][]*Package)}

// Load resolves patterns with `go list -json -export -deps` in dir,
// parses the matched (non-dependency) packages, and type-checks them
// against the compiler's export data — the same inputs `go vet` feeds a
// vettool, obtained without golang.org/x/tools. Test files are not
// loaded (GoFiles excludes them), which matches the analyzers' scope.
// Results are memoized per (dir, patterns), so a multi-analyzer run —
// or a driver invoking Load once per analyzer — pays for the package
// graph exactly once per process.
func Load(dir string, patterns ...string) ([]*Package, error) {
	key := dir
	if abs, err := filepath.Abs(dir); err == nil {
		key = abs
	}
	key += "\x00" + strings.Join(patterns, "\x00")
	loadCache.Lock()
	defer loadCache.Unlock()
	if pkgs, ok := loadCache.m[key]; ok {
		return pkgs, nil
	}
	pkgs, err := load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	loadCache.m[key] = pkgs
	return pkgs, nil
}

// load is the uncached package loader behind Load.
func load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-json", "-export", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exportFile := make(map[string]string)
	importMap := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exportFile[lp.ImportPath] = lp.Export
		}
		for src, canonical := range lp.ImportMap {
			importMap[src] = canonical
		}
		if !lp.DepOnly {
			p := lp
			targets = append(targets, &p)
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exportFile, importMap)
	var pkgs []*Package
	for _, lp := range targets {
		pkg, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses and checks one package from its file list.
func typecheck(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", lp.ImportPath, err)
	}
	return &Package{
		PkgPath:   lp.ImportPath,
		Fset:      fset,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// newExportImporter returns an importer that resolves every import from
// the compiler export data files named in exportFile, applying the
// source-to-canonical importMap first (vendoring, "vet"-style maps).
func newExportImporter(fset *token.FileSet, exportFile, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := importMap[path]; ok {
			path = canonical
		}
		file, ok := exportFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
