// Package framework is a self-contained, standard-library-only analog of
// golang.org/x/tools/go/analysis, sized for this repository's needs.
//
// The repository builds hermetically (no module downloads), so the usual
// x/tools analysis stack is not available; this package reimplements the
// small slice of it that twm-lint needs: the Analyzer/Pass/Diagnostic
// model, a module-aware source loader for in-process runs and tests
// (load.go), and the `go vet -vettool` unit-checker protocol (vet.go).
// Analyzers written against it look and behave like ordinary go/analysis
// analyzers, so a future migration to x/tools is mechanical.
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
	// Name identifies the analyzer in diagnostics and flags. It must be a
	// valid Go identifier.
	Name string
	// Doc is the help text: first sentence is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// FactTypes lists prototype values (non-nil pointers) of every Fact
	// type the analyzer exports or imports, for gob registration. An
	// analyzer with no FactTypes neither produces nor consumes facts and
	// is skipped entirely in facts-only (VetxOnly) units.
	FactTypes []Fact
}

// Pass presents one package to an Analyzer. It mirrors analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// TypesSizes gives the target's layout rules (used by atomichygiene's
	// alignment check, which additionally consults 32-bit sizes itself).
	TypesSizes types.Sizes

	report func(Diagnostic)
	facts  *FactStore
}

// ExportObjectFact attaches a fact to obj for later passes — including
// passes over other packages that import this one. Facts on local objects
// are silently dropped (see ObjectKey).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts != nil {
		p.facts.ExportObjectFact(obj, fact)
	}
}

// ImportObjectFact copies the fact of ptr's dynamic type attached to obj —
// by this pass or by an earlier pass over the package that declares obj —
// into ptr, reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.facts != nil && p.facts.ImportObjectFact(obj, ptr)
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

// RunAnalyzersFacts applies each analyzer to the package described by (fset,
// files, pkg, info) and returns the combined diagnostics sorted by position.
// Analyzers read facts that earlier analyses (of this package's dependencies)
// left in the store and add their own for later ones. Diagnostics suppressed
// by a `//twm:allow <rule>` directive on their line or the line above are
// dropped here, so every analyzer honors the directive uniformly.
func RunAnalyzersFacts(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sizes types.Sizes, facts *FactStore) ([]Diagnostic, error) {
	allows := CollectAllows(fset, files)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: sizes,
			facts:      facts,
			report: func(d Diagnostic) {
				if !allowedAt(fset, allows, d) {
					diags = append(diags, d)
				}
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// AllowDirective is one parsed `//twm:allow rule[,rule] justification`
// comment: a per-line, per-rule suppression every analyzer honors, with
// the justification kept for the -allowlist audit.
type AllowDirective struct {
	File          string
	Line          int
	Rules         []string
	Justification string
}

// CollectAllows parses every //twm:allow directive in the files.
func CollectAllows(fset *token.FileSet, files []*ast.File) []AllowDirective {
	var out []AllowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "twm:allow")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, AllowDirective{
					File:          pos.Filename,
					Line:          pos.Line,
					Rules:         strings.Split(fields[0], ","),
					Justification: strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
				})
			}
		}
	}
	return out
}

// allowedAt reports whether d is suppressed by a directive naming d's
// analyzer (or "all") on d's line or the line above.
func allowedAt(fset *token.FileSet, allows []AllowDirective, d Diagnostic) bool {
	if len(allows) == 0 {
		return false
	}
	p := fset.Position(d.Pos)
	for _, a := range allows {
		if a.File != p.Filename || (a.Line != p.Line && a.Line != p.Line-1) {
			continue
		}
		for _, r := range a.Rules {
			if r == d.Analyzer || r == "all" {
				return true
			}
		}
	}
	return false
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

// HasDirective reports whether the comment group contains the given
// twm directive (e.g. "twm:impure"), either alone or followed by an
// explanation after a space.
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// DirectiveLines returns the set of source lines (per file of the pass) on
// which the given directive comment appears. A node is conventionally
// suppressed when the directive sits on its own line or on the line above.
func DirectiveLines(fset *token.FileSet, files []*ast.File, directive string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if text != directive && !strings.HasPrefix(text, directive+" ") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					out[pos.Filename] = m
				}
				m[pos.Line] = true
			}
		}
	}
	return out
}

// SuppressedAt reports whether lines (from DirectiveLines) suppress the
// given position: the directive is on the same line or the line above.
func SuppressedAt(fset *token.FileSet, lines map[string]map[int]bool, pos token.Pos) bool {
	p := fset.Position(pos)
	m := lines[p.Filename]
	return m != nil && (m[p.Line] || m[p.Line-1])
}
