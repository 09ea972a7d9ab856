// Command twm-lint statically enforces the repository's transactional
// usage discipline (DESIGN.md §9 and §14) with five analyzers: txescape,
// txpurity, rodiscipline, atomichygiene and abortshape.
//
// It runs two ways:
//
//	twm-lint ./...                       # standalone; drives go vet under the hood
//	go vet -vettool=$(which twm-lint) ./...  # as a vet tool (what CI does)
//
// Both modes analyze test files and package variants exactly like go vet,
// and both propagate analysis facts across package boundaries (gob vetx
// files under go vet, an in-process fact store otherwise). A third mode,
// twm-lint -mode=source [dirs], type-checks from source without invoking
// the go command at all (no build cache needed); it skips _test.go files
// and is mainly useful for quick iteration on the analyzers themselves.
//
// Reporting flags:
//
//	-sarif=report.sarif      also write the findings as SARIF 2.1.0
//	-baseline=baseline.json  exit 0 for findings recorded in the baseline
//	-allowlist               audit //twm:allow directives instead of linting
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/framework"
)

func main() {
	os.Exit(run())
}

func run() int {
	// The go vet handshake probes the tool before handing it work: -V=full
	// must print an identifying version line (cached as part of the build
	// key), -flags must describe the tool's flags as JSON.
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			printVersion()
			return 0
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return 0
		}
	}

	// A single .cfg argument means cmd/go is driving us over one package
	// unit (the unitchecker protocol).
	if args := os.Args[1:]; len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return framework.VetUnit(analysis.All(), args[0], os.Stderr)
	}

	fs := flag.NewFlagSet("twm-lint", flag.ExitOnError)
	mode := fs.String("mode", "vet", "how to load packages: vet (drive go vet, includes tests) or source (typecheck from source, no tests)")
	sarifPath := fs.String("sarif", "", "write findings as a SARIF 2.1.0 report to this file")
	baselinePath := fs.String("baseline", "", "JSON baseline of accepted findings; findings it covers do not fail the run")
	allowlist := fs.Bool("allowlist", false, "audit mode: list every //twm:allow directive with its justification instead of linting")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: twm-lint [-mode=vet|source] [-sarif=file] [-baseline=file] [-allowlist] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Analyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	modRoot, modPath, err := findModule(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
		return 1
	}

	if *allowlist {
		return runAllowlist(modRoot, patterns)
	}

	var baseline []framework.DiagJSON
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
			return 1
		}
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "twm-lint: parsing baseline %s: %v\n", *baselinePath, err)
			return 1
		}
	}

	var findings []framework.DiagJSON
	exit := 0
	switch *mode {
	case "vet":
		findings, exit = runVet(patterns)
	case "source":
		findings, exit = runSource(modRoot, modPath, patterns)
	default:
		fmt.Fprintf(os.Stderr, "twm-lint: unknown -mode %q\n", *mode)
		return 1
	}
	if exit == 1 {
		return 1
	}

	for i := range findings {
		findings[i].File = relPath(modRoot, findings[i].File)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Message < b.Message
	})

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, findings); err != nil {
			fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
			return 1
		}
	}

	// The baseline gates the exit code, not the report: every finding is
	// printed and lands in the SARIF file, but only findings the baseline
	// does not cover fail the run.
	fresh := 0
	for _, f := range findings {
		suffix := ""
		if inBaseline(baseline, f) {
			suffix = " [baseline]"
		} else {
			fresh++
		}
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)%s\n", f.File, f.Line, f.Col, f.Message, f.Analyzer, suffix)
	}
	if fresh > 0 {
		return 2
	}
	return 0
}

// printVersion emits the version line the go command uses to fingerprint
// vet tools; hashing the executable makes rebuilds invalidate vet caches.
func printVersion() {
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("twm-lint version devel buildID=%x\n", h.Sum(nil)[:12])
}

// runVet re-invokes this binary through `go vet -vettool`, which loads
// packages (tests included) and calls back into the .cfg branch above. The
// unit processes mirror their diagnostics as JSON into a temporary
// directory (DiagJSONDirEnv) so the driver owns reporting: vet's own text
// output is swallowed and replaced by the normalized, baseline-aware form.
func runVet(patterns []string) ([]framework.DiagJSON, int) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "twm-lint: locating own executable: %v\n", err)
		return nil, 1
	}
	diagDir, err := os.MkdirTemp("", "twm-lint-diag-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
		return nil, 1
	}
	defer os.RemoveAll(diagDir)

	args := append([]string{"vet", "-vettool=" + self}, patterns...)
	cmd := exec.Command("go", args...)
	var vetOut strings.Builder
	cmd.Stdout = &vetOut
	cmd.Stderr = &vetOut
	cmd.Env = append(os.Environ(), framework.DiagJSONDirEnv+"="+diagDir)
	vetErr := cmd.Run()

	findings, err := readDiagDir(diagDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
		return nil, 1
	}
	if vetErr != nil && len(findings) == 0 {
		// Nonzero exit with no mirrored diagnostics is an operational
		// failure (build error, bad pattern): surface vet's own output.
		io.WriteString(os.Stderr, vetOut.String())
		fmt.Fprintf(os.Stderr, "twm-lint: go vet: %v\n", vetErr)
		return nil, 1
	}
	return findings, 0
}

// readDiagDir collects the per-unit diagnostic JSON files the vet units
// wrote.
func readDiagDir(dir string) ([]framework.DiagJSON, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []framework.DiagJSON
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var unit []framework.DiagJSON
		if err := json.Unmarshal(data, &unit); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", e.Name(), err)
		}
		out = append(out, unit...)
	}
	return out, nil
}

// runSource loads packages from source (non-test files) and analyzes them
// in-process through a Session, so facts flow between packages exactly as
// they do under go vet.
func runSource(modRoot, modPath string, patterns []string) ([]framework.DiagJSON, int) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
		return nil, 1
	}
	loader := framework.NewLoader(modRoot, modPath)
	session := framework.NewSession(loader, analysis.All())
	var findings []framework.DiagJSON
	exit := 0
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
			exit = 1
			continue
		}
		diags, err := session.Analyze(pkg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
			exit = 1
			continue
		}
		for _, d := range diags {
			p := loader.Fset.Position(d.Pos)
			findings = append(findings, framework.DiagJSON{
				File: p.Filename, Line: p.Line, Col: p.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
	}
	return findings, exit
}

// runAllowlist prints every //twm:allow directive under the patterns (test
// files included, testdata excluded) so suppressions stay auditable.
func runAllowlist(modRoot string, patterns []string) int {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
		return 1
	}
	fset := token.NewFileSet()
	var all []framework.AllowDirective
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
			return 1
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				fmt.Fprintf(os.Stderr, "twm-lint: %v\n", err)
				return 1
			}
			all = append(all, framework.CollectAllows(fset, []*ast.File{f})...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		return all[i].Line < all[j].Line
	})
	for _, a := range all {
		just := a.Justification
		if just == "" {
			just = "(no justification)"
		}
		fmt.Printf("%s:%d: %s: %s\n", relPath(modRoot, a.File), a.Line, strings.Join(a.Rules, ","), just)
	}
	fmt.Printf("%d //twm:allow directive(s)\n", len(all))
	return 0
}

// inBaseline reports whether the baseline covers f. Matching ignores line
// and column so recorded findings survive unrelated edits to the file.
func inBaseline(baseline []framework.DiagJSON, f framework.DiagJSON) bool {
	for _, b := range baseline {
		if b.Analyzer == f.Analyzer && b.File == f.File && b.Message == f.Message {
			return true
		}
	}
	return false
}

// relPath rewrites an absolute position filename to a slash-separated path
// relative to the module root — the form baselines and SARIF use.
func relPath(modRoot, file string) string {
	if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module directive in %s/go.mod", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// expandPatterns resolves go-style package patterns ("./...", "dir",
// "dir/...") to the set of directories containing non-test Go files,
// skipping testdata and hidden directories.
func expandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, p := range patterns {
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			root := rest
			if root == "" || root == "." {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(p)
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
