package checktest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

// loader type-checks packages of one module from source, resolving module
// imports from the module tree and everything else (the standard library)
// through the compiler's source importer. It needs no network, no export
// data and no `go` invocation, which is what lets a golden test run inside
// `go test`.
type loader struct {
	fset    *token.FileSet
	modRoot string // absolute path of the module root directory
	modPath string // module path from go.mod (e.g. "repro")

	std    types.ImporterFrom   // source importer for non-module paths
	loaded map[string]*typedPkg // module packages by import path: one *types.Package each
}

// typedPkg is one fully type-checked package ready for analysis.
type typedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		loaded:  make(map[string]*typedPkg),
	}
}

// Import implements types.Importer: module packages come from source,
// everything else is delegated to the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		lp, err := l.load(filepath.Join(l.modRoot, filepath.FromSlash(rest)), path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

// loadDir type-checks the package in dir, a directory inside the module.
func (l *loader) loadDir(dir string) (*typedPkg, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("%s is not a package directory inside module %s", dir, l.modPath)
	}
	return l.load(dir, l.modPath+"/"+filepath.ToSlash(rel))
}

// load type-checks the non-test files of the package in dir once, memoized
// by import path.
func (l *loader) load(dir, importPath string) (*typedPkg, error) {
	if lp, ok := l.loaded[importPath]; ok {
		return lp, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("resolving %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := framework.NewInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, typeErrs[0])
	}
	lp := &typedPkg{files: files, pkg: pkg, info: info}
	l.loaded[importPath] = lp
	return lp, nil
}
