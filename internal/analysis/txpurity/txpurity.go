// Package txpurity implements the twm-lint analyzer that keeps transaction
// bodies side-effect free.
//
// Atomically re-executes its body on every abort (internal/stm/atomically.go),
// so anything a body does besides Tx.Read/Tx.Write happens once per attempt,
// not once per transaction: I/O duplicates output, clocks and RNGs make
// retries non-deterministic, channel and mutex operations can deadlock
// against the very transactions the engine is waiting out, goroutines leak
// per retry, and a nested Atomically deadlocks engines with per-goroutine
// commit locks. The analyzer walks every transaction-body closure and,
// transitively, every same-package function it calls, and reports:
//
//   - nested Atomically / AtomicallyCtx calls;
//   - `go` statements;
//   - channel operations (send, receive, select, close, range-over-channel);
//   - sync.Mutex/RWMutex/WaitGroup/Once/Cond method calls;
//   - mutating sync/atomic operations;
//   - I/O and OS effects: fmt, log, os, io, bufio, net, ... package calls
//     and the print/println builtins;
//   - nondeterminism: time.Now/Sleep/..., math/rand, runtime.Gosched.
//
// A deliberate effect (a test's coordination channel, a probe counter) is
// declared with `//twm:allow txpurity <reason>` on its line or the line
// above. Calls into other packages, beyond the listed effects, are not
// followed: such a callee is taken to be pure.
package txpurity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/stmtypes"
)

// Analyzer is the txpurity analysis.
var Analyzer = &framework.Analyzer{
	Name: "txpurity",
	Doc:  "report side effects inside transaction bodies, which re-execute on retry",
	Run:  run,
}

// purePkgFuncs exempts pure constructors from otherwise-forbidden
// packages: they build values without touching the outside world, and
// returning a fmt.Errorf user-abort error from a body is part of the
// Atomically contract.
var purePkgFuncs = map[string]map[string]bool{
	"fmt": {
		"Errorf": true, "Sprintf": true, "Sprint": true, "Sprintln": true,
		"Appendf": true, "Append": true, "Appendln": true,
	},
}

// forbiddenPkgs are packages whose every call is an effect a transaction
// body must not have.
var forbiddenPkgs = map[string]bool{
	"fmt":          true,
	"log":          true,
	"log/slog":     true,
	"os":           true,
	"io":           true,
	"io/ioutil":    true,
	"bufio":        true,
	"net":          true,
	"net/http":     true,
	"math/rand":    true,
	"math/rand/v2": true,
}

// forbiddenFuncs are individual package-level functions that inject
// nondeterminism or scheduling effects.
var forbiddenFuncs = map[string]map[string]bool{
	"time": {
		"Now": true, "Sleep": true, "Since": true, "Until": true,
		"After": true, "AfterFunc": true, "Tick": true,
		"NewTimer": true, "NewTicker": true,
	},
	"runtime": {"Gosched": true},
}

// atomicMutators are the sync/atomic operation name prefixes that modify
// shared memory outside transactional control.
var atomicMutators = []string{"Add", "Store", "Swap", "CompareAndSwap", "Or", "And"}

// violation is one impurity, positioned where it occurs.
type violation struct {
	pos  token.Pos
	what string // reads like "calls fmt.Printf" or "spawns a goroutine"
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
		for _, v := range c.scan(body.Lit.Body) {
			pass.Reportf(v.pos, "transaction body %s; bodies re-execute on retry", v.what)
		}
	}
	return nil
}

// declaredFuncs maps this package's function and method objects to their
// declarations, for transitive scanning.
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

// summary returns the violations of a same-package function, memoized;
// recursion is cut off (a cycle contributes nothing new).
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

// scan walks a function body collecting direct violations and, for calls
// into same-package functions, transitive ones.
func (c *checker) scan(body ast.Node) []violation {
	info := c.pass.TypesInfo
	var out []violation
	add := func(pos token.Pos, what string) { out = append(out, violation{pos, what}) }
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			add(n.Pos(), "spawns a goroutine")
		case *ast.SendStmt:
			add(n.Pos(), "performs a channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n.Pos(), "performs a channel receive")
			}
		case *ast.SelectStmt:
			add(n.Pos(), "blocks in a select statement")
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					add(n.Pos(), "ranges over a channel")
				}
			}
		case *ast.CallExpr:
			c.checkCall(n, add)
		}
		return true
	})
	return out
}

func (c *checker) checkCall(call *ast.CallExpr, add func(token.Pos, string)) {
	info := c.pass.TypesInfo

	// Builtins: close tears down shared channels, print/println are I/O.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "close":
				add(call.Pos(), "closes a channel")
			case "print", "println":
				add(call.Pos(), "calls builtin "+b.Name())
			}
			return
		}
	}

	if stmtypes.IsAtomicallyCall(info, call) {
		add(call.Pos(), "starts a nested transaction")
		return
	}

	fn := stmtypes.FuncOf(info, call)
	if fn == nil {
		return
	}
	path := stmtypes.PkgPathOf(fn)
	sig, _ := fn.Type().(*types.Signature)

	if sig != nil && sig.Recv() != nil {
		recvPath := recvPkgPath(sig)
		switch recvPath {
		case "sync":
			add(call.Pos(), "calls sync."+recvTypeName(sig)+"."+fn.Name())
			return
		case "sync/atomic":
			if hasMutatorPrefix(fn.Name()) {
				add(call.Pos(), "mutates shared memory with sync/atomic ("+fn.Name()+")")
			}
			return
		}
	}

	switch {
	case forbiddenPkgs[path]:
		if purePkgFuncs[path] != nil && purePkgFuncs[path][fn.Name()] {
			return
		}
		add(call.Pos(), "calls "+shortName(path)+"."+fn.Name())
	case forbiddenFuncs[path] != nil && forbiddenFuncs[path][fn.Name()]:
		add(call.Pos(), "calls "+shortName(path)+"."+fn.Name())
	case path == "sync/atomic" && hasMutatorPrefix(fn.Name()):
		add(call.Pos(), "mutates shared memory with sync/atomic ("+fn.Name()+")")
	case fn.Pkg() == c.pass.Pkg:
		// Same-package callee: fold its summary in at the call site.
		if s := c.summary(fn); len(s) > 0 {
			add(call.Pos(), "calls "+fn.Name()+", which "+s[0].what)
		}
	}
}

func recvPkgPath(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}

func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func hasMutatorPrefix(name string) bool {
	for _, p := range atomicMutators {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func shortName(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
