// Package checktest is the golden-file test harness for twm-lint
// analyzers, equivalent in spirit to x/tools' analysistest: a testdata
// package is type-checked from source, the analyzers run over it, and the
// results are matched line-by-line against `// want` expectation comments
// in the testdata itself.
//
// Expectation syntax (a subset of analysistest's):
//
//	x = tx            // want `escapes`
//	fmt.Println(x)    // want "calls fmt" "second diagnostic on this line"
//	_ = 1 //twm:allow txpurity stale // want `suppresses no diagnostic`
//
// Each quoted string is a regular expression that must match the message
// of exactly one diagnostic reported on that line; diagnostics and
// expectations must cover each other exactly. As in analysistest, a
// comment that contains "// want" is read from there on, which is how a
// line whose only comment is a directive states what is reported about the
// directive itself.
package checktest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// Run loads the package in testdata/src/<pkgname> (relative to the test's
// working directory, i.e. the analyzer's package directory) and checks the
// analyzers' diagnostics against its `// want` expectations.
func Run(t *testing.T, pkgname string, analyzers ...*framework.Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", filepath.FromSlash(pkgname)))
	if err != nil {
		t.Fatalf("checktest: %v", err)
	}
	modRoot, modPath, err := findModule()
	if err != nil {
		t.Fatalf("checktest: %v", err)
	}
	l := newLoader(modRoot, modPath)
	pkg, err := l.loadDir(dir)
	if err != nil {
		t.Fatalf("checktest: %v", err)
	}
	diags, err := framework.RunAnalyzers(analyzers, l.fset, pkg.files, pkg.pkg, pkg.info)
	if err != nil {
		t.Fatalf("checktest: %v", err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range pkg.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := l.fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, pattern := range parseWant(c.Text) {
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pattern, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	for _, d := range diags {
		pos := l.fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, d.Message, d.Analyzer)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

// parseWant extracts the patterns of a `// want "..." `+"`...`"+` comment;
// nil if the comment is not an expectation.
func parseWant(text string) []string {
	if i := strings.Index(text, "// want "); i > 0 {
		text = text[i:]
	}
	rest, found := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ")
	if !found {
		return nil
	}
	var patterns []string
	for rest = strings.TrimSpace(rest); rest != ""; {
		quoted, err := strconv.QuotedPrefix(rest) // "..." or `...`
		if err != nil {
			break
		}
		unq, _ := strconv.Unquote(quoted)
		patterns = append(patterns, unq)
		rest = strings.TrimSpace(rest[len(quoted):])
	}
	return patterns
}

// findModule locates the enclosing module from the test's working
// directory.
func findModule() (root, path string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module directive in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above test directory")
		}
		dir = parent
	}
}
