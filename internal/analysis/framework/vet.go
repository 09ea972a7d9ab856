package framework

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
)

// vetConfig mirrors the fields this tool reads from the JSON configuration
// file cmd/go hands to a -vettool for each package unit (see
// cmd/go/internal/work and x/tools/go/analysis/unitchecker, which consume
// the same format).
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// VetUnit implements the `go vet -vettool` protocol for one package unit:
// it reads the cfg file, type-checks the unit against the export data the
// go command already produced, runs the analyzers, and prints diagnostics in
// the standard file:line:col form. The analyzers export no facts, so every
// unit writes the empty VetxOutput the go command requires, and a
// facts-only unit (VetxOnly: a dependency outside the vetted patterns) does
// nothing else. The returned exit code follows unitchecker's convention: 0
// clean, 1 operational error, 2 diagnostics.
func VetUnit(analyzers []*Analyzer, cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "twm-lint: reading vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "twm-lint: parsing vet config %s: %v\n", cfgPath, err)
		return 1
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "twm-lint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(stderr, "twm-lint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	// Resolve imports through the export data files listed in the config,
	// applying the unit's import map (test variants, vendoring).
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := NewInfo()
	pkg, _ := conf.Check(cfg.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, e := range typeErrs {
			fmt.Fprintf(stderr, "twm-lint: %v\n", e)
		}
		return 1
	}

	diags, err := RunAnalyzers(analyzers, fset, files, pkg, info)
	if err != nil {
		fmt.Fprintf(stderr, "twm-lint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s (%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
