package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsLive keeps .github/workflows/ci.yml honest: every
// alternative of every `go test … -run 'a|b|c' pkgs…` command must match at
// least one test function in those packages. A deleted or renamed test
// otherwise leaves its alternative behind, matching nothing, and the step
// goes on passing while running less than its name says.
func TestCIRunPatternsLive(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(yml), "\n") {
		for _, cmd := range strings.Split(line, "&&") {
			words := shellWords(cmd)
			pattern, pkgs := "", []string(nil)
			for i, w := range words {
				switch {
				case w == "-run" && i+1 < len(words):
					pattern = words[i+1]
				case strings.HasPrefix(w, "./"):
					pkgs = append(pkgs, w)
				}
			}
			if !strings.Contains(cmd, "go test") || pattern == "" || pattern == "NONE" {
				continue // not a test command, or a benchmark-only one
			}
			names := testFuncs(t, pkgs)
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -run alternative %q: %v", n+1, alt, err)
					continue
				}
				checked++
				live := false
				for _, name := range names {
					live = live || re.MatchString(name)
				}
				if !live {
					t.Errorf("ci.yml:%d: -run alternative %q matches no func Test… in %v", n+1, alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no `go test -run` command in ci.yml; the parser has rotted")
	}
}

// shellWords splits on spaces, keeping single-quoted stretches whole — all the
// quoting ci.yml's test commands use.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	quoted := false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted = !quoted
		case r == ' ' && !quoted:
			if cur.Len() > 0 {
				words = append(words, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		words = append(words, cur.String())
	}
	return words
}

var testFuncRE = regexp.MustCompile(`(?m)^func (Test\w*)\(`)

// testFuncs lists the test functions declared in the _test.go files of the
// given package patterns (a directory, or dir/... for the tree under it).
func testFuncs(t *testing.T, pkgs []string) []string {
	var names []string
	scan := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	for _, pkg := range pkgs {
		if dir, tree := strings.CutSuffix(pkg, "..."); tree {
			err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err == nil && strings.HasSuffix(path, "_test.go") {
					scan(path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Errorf("ci.yml names package %s, which has no _test.go files (%v)", pkg, err)
		}
		for _, f := range files {
			scan(f)
		}
	}
	return names
}
