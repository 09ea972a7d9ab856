// Package rodiscipline implements the twm-lint analyzer that makes the
// readOnly=true promise checkable at compile time.
//
// The paper's model statically classifies read-only transactions
// (stm.TM.Begin's readOnly parameter); the multi-version engines reward
// the promise with mv-permissive, abort-free execution that skips read-set
// maintenance and validation. A body that breaks the promise — calling
// Tx.Write, TVar.Set or stm.Retry from a transaction started with
// readOnly=true — bypasses exactly those skipped mechanisms and corrupts
// the engine's invariants at runtime. The analyzer flags any such call
// that is reachable from a body whose runner receives a constant
// readOnly=true, transitively through same-package helpers that take the
// Tx along.
package rodiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/stmtypes"
)

// Analyzer is the rodiscipline analysis.
var Analyzer = &framework.Analyzer{
	Name: "rodiscipline",
	Doc:  "report Tx.Write/TVar.Set/stm.Retry reachable from readOnly=true transaction bodies",
	Run:  run,
}

// violation is one write-side operation, positioned where it occurs.
type violation struct {
	pos  token.Pos
	what string
}

type checker struct {
	pass       *framework.Pass
	decls      map[*types.Func]*ast.FuncDecl
	summaries  map[*types.Func][]violation
	inProgress map[*types.Func]bool
}

func run(pass *framework.Pass) error {
	c := &checker{
		pass:       pass,
		decls:      declaredFuncs(pass),
		summaries:  make(map[*types.Func][]violation),
		inProgress: make(map[*types.Func]bool),
	}
	for _, body := range stmtypes.FindBodies(pass.TypesInfo, pass.Files) {
		if !body.ReadOnly {
			continue
		}
		for _, v := range c.scan(body.Lit.Body) {
			pass.Reportf(v.pos, "%s inside a transaction body started with readOnly=true; read-only transactions must not write (mv-permissiveness contract)", v.what)
		}
	}
	return nil
}

func declaredFuncs(pass *framework.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

func (c *checker) summary(fn *types.Func) []violation {
	if s, ok := c.summaries[fn]; ok {
		return s
	}
	if c.inProgress[fn] {
		return nil
	}
	decl := c.decls[fn]
	if decl == nil {
		return nil
	}
	c.inProgress[fn] = true
	s := c.scan(decl.Body)
	c.inProgress[fn] = false
	c.summaries[fn] = s
	return s
}

// scan collects write-side operations in a function body: direct Tx.Write /
// TVar.Set / stm.Retry calls, plus calls that hand a Tx to a same-package
// helper whose own summary contains one.
func (c *checker) scan(body ast.Node) []violation {
	info := c.pass.TypesInfo
	var out []violation
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case stmtypes.IsTxWrite(info, call):
			out = append(out, violation{call.Pos(), "Tx.Write"})
		case stmtypes.IsTVarSet(info, call):
			out = append(out, violation{call.Pos(), "TVar.Set (a Tx.Write)"})
		default:
			fn := stmtypes.FuncOf(info, call)
			if fn == nil {
				return true
			}
			if stmtypes.IsStmFunc(fn, "Retry") {
				out = append(out, violation{call.Pos(), "stm.Retry"})
				return true
			}
			if fn.Pkg() == c.pass.Pkg && passesTx(info, call) {
				if s := c.summary(fn); len(s) > 0 {
					out = append(out, violation{call.Pos(), "call to " + fn.Name() + ", which reaches " + s[0].what + ","})
				}
			}
		}
		return true
	})
	return out
}

// passesTx reports whether any argument of call has static type stm.Tx.
func passesTx(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && stmtypes.IsTx(tv.Type) {
			return true
		}
	}
	return false
}
