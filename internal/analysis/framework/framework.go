// Package framework is a self-contained, standard-library-only analog of
// golang.org/x/tools/go/analysis, sized for this repository's needs.
//
// The repository builds hermetically (no module downloads), so the usual
// x/tools analysis stack is not available; this package reimplements the
// small slice of it that twm-lint needs: the Analyzer/Pass/Diagnostic
// model, the one suppression directive, and the `go vet -vettool`
// unit-checker protocol (vet.go). Analyzers written against it look and
// behave like ordinary go/analysis analyzers, so a future migration to
// x/tools is mechanical.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. It mirrors analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //twm:allow
	// directives. It must be a valid Go identifier.
	Name string
	// Doc is the help text: first sentence is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass presents one package to an Analyzer. It mirrors analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Inspect walks every file of the pass in depth-first order, calling fn for
// each node; fn returning false prunes the subtree (ast.Inspect semantics).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// allowDirective is the one suppression directive:
//
//	//twm:allow <analyzer> <justification>
//
// It drops the named analyzer's diagnostics on its own line and the line
// below. A directive that names no analyzer of the run, or that suppresses
// no diagnostic, is itself reported, so a suppression cannot outlive the
// finding it was written for.
const allowDirective = "twm:allow"

// allow is one parsed //twm:allow directive.
type allow struct {
	pos      token.Pos
	position token.Position
	analyzer string
	used     bool
}

// RunAnalyzers applies each analyzer to the package described by (fset,
// files, pkg, info) and returns the combined diagnostics sorted by position:
// every finding no //twm:allow suppresses, then one per directive that names
// no analyzer or suppressed nothing.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	allows := collectAllows(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			report: func(d Diagnostic) {
				if !suppress(allows, fset.Position(d.Pos), d.Analyzer) {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, al := range allows {
		d := Diagnostic{Pos: al.pos, Analyzer: allowDirective}
		switch {
		case !known[al.analyzer]:
			d.Message = fmt.Sprintf("//%s names no analyzer (%q)", allowDirective, al.analyzer)
		case !al.used:
			d.Message = fmt.Sprintf("//%s %s suppresses no diagnostic; delete it", allowDirective, al.analyzer)
		default:
			continue
		}
		diags = append(diags, d)
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// collectAllows parses every //twm:allow directive in the files.
func collectAllows(fset *token.FileSet, files []*ast.File) []*allow {
	var out []*allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//"+allowDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				al := &allow{pos: c.Pos(), position: fset.Position(c.Pos())}
				if fields := strings.Fields(rest); len(fields) > 0 {
					al.analyzer = fields[0]
				}
				out = append(out, al)
			}
		}
	}
	return out
}

// suppress reports whether a directive naming analyzer sits on p's line or
// the line above, marking every such directive used.
func suppress(allows []*allow, p token.Position, analyzer string) bool {
	hit := false
	for _, al := range allows {
		if al.analyzer == analyzer && al.position.Filename == p.Filename &&
			(al.position.Line == p.Line || al.position.Line == p.Line-1) {
			al.used = true
			hit = true
		}
	}
	return hit
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
