package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the internal packages no program imports on purpose,
// each with the reason it exists anyway.
var reachAllowlist = map[string]string{
	"internal/stm/stmtest":                  "conformance battery every engine's tests run",
	"internal/chaos":                        "fault-injection wrappers for the soak tests",
	"internal/analysis/framework/checktest": "golden-test harness of the twm-lint analyzers",
}

// TestEveryPackageReachable keeps the tree free of orphans. The roots are the
// `package main` directories — cmd/*, examples/* and benchmark/ (its own
// module, but part of this tree) — and the edges are the imports of non-test
// files. It fails when an internal package is reachable from no root and is
// not allowlisted, when an allowlisted package has become reachable, and when
// an example has no test that runs its main.
func TestEveryPackageReachable(t *testing.T) {
	pkgs := scanPackages(t, ".")
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		if p := pkgs[dir]; p != nil {
			for _, imp := range p.imports {
				visit(imp)
			}
		}
	}
	roots := 0
	for dir, p := range pkgs {
		if p.name == "main" {
			roots++
			visit(dir)
		}
	}
	if roots == 0 || !reached["benchmark"] {
		t.Fatalf("found %d package main roots, benchmark/ among them: %v; the scanner has rotted", roots, reached["benchmark"])
	}

	dirs := make([]string, 0, len(pkgs))
	for dir := range pkgs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		p := pkgs[dir]
		reason, allowed := reachAllowlist[dir]
		switch {
		case strings.HasPrefix(dir, "internal/") && p.name != "" && !reached[dir] && !allowed:
			t.Errorf("%s: no program (cmd/*, examples/*, benchmark/) reaches it; delete it, or allowlist it with a reason", dir)
		case allowed && reached[dir]:
			t.Errorf("%s: allowlisted (%s), but a program now imports it; drop the allowlist entry", dir, reason)
		case strings.HasPrefix(dir, "examples/") && p.name == "main" && !p.testRunsMain:
			t.Errorf("%s: no _test.go calls main(); an example that nothing runs goes stale", dir)
		}
	}
	for dir := range reachAllowlist {
		if pkgs[dir] == nil {
			t.Errorf("allowlist names %s, which does not exist", dir)
		}
	}
}

// pkgInfo is what the reachability check needs of one directory.
type pkgInfo struct {
	name         string   // package clause of the non-test files; "" if none
	imports      []string // in-tree imports of the non-test files, as directories
	testRunsMain bool     // some _test.go calls main()
}

// scanPackages parses every .go file under root, skipping testdata/,
// .bench_build/ and hidden directories, and returns the packages by
// slash-separated directory.
func scanPackages(t *testing.T, root string) map[string]*pkgInfo {
	t.Helper()
	pkgs := map[string]*pkgInfo{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || d.Name() == ".bench_build" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := pkgs[dir]
		if p == nil {
			p = &pkgInfo{}
			pkgs[dir] = p
		}
		if strings.HasSuffix(path, "_test.go") {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "main" && len(call.Args) == 0 {
						p.testRunsMain = true
					}
				}
				return true
			})
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		p.name = f.Name.Name
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if rel, ok := strings.CutPrefix(ip, "repro/"); ok {
				p.imports = append(p.imports, rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}
