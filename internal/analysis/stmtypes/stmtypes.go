// Package stmtypes centralizes how the twm-lint analyzers recognize the
// repository's STM vocabulary in type-checked syntax: the stm.Tx interface,
// transaction-body closures (func(stm.Tx) error literals), Atomically-style
// runners and their readOnly argument, and the stm package's own
// transactional accessors (Tx.Write, TVar.Set, Retry).
package stmtypes

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// StmPath is the import path of the package that defines the transactional
// contract every analyzer enforces.
const StmPath = "repro/internal/stm"

// normPath strips the " [pkg.test]" variant suffix the go command appends
// to package paths of test units, so type identity survives `go vet` over
// test variants.
func normPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// isNamed reports whether t is the named type path.name.
func isNamed(t types.Type, path, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && normPath(obj.Pkg().Path()) == path && obj.Name() == name
}

// IsTx reports whether t is stm.Tx (the transaction interface).
func IsTx(t types.Type) bool {
	if t == nil {
		return false
	}
	if isNamed(t, StmPath, "Tx") {
		return true
	}
	// An alias (type Tx = stm.Tx) resolves to the same named type.
	if a, ok := t.(*types.Alias); ok {
		return IsTx(types.Unalias(a))
	}
	return false
}

// IsBodySig reports whether sig is func(stm.Tx) error — the shape of a
// transaction body.
func IsBodySig(sig *types.Signature) bool {
	if sig == nil || sig.Recv() != nil {
		return false
	}
	if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	if !IsTx(sig.Params().At(0).Type()) {
		return false
	}
	res, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && res.Obj() != nil && res.Obj().Pkg() == nil && res.Obj().Name() == "error"
}

// Body is one transaction-body closure found in a package.
type Body struct {
	Lit *ast.FuncLit
	// TxParam is the declared object of the closure's Tx parameter, or nil
	// when the parameter is blank.
	TxParam types.Object
	// Call is the call expression the closure is passed to (stm.Atomically,
	// stm.AtomicallyCtx, or any other runner taking func(stm.Tx) error); nil
	// if the closure is bound to a variable instead.
	Call *ast.CallExpr
	// ReadOnly reports the constant value of the runner's readOnly
	// argument; ReadOnlyKnown is false when there is no such argument or it
	// is not constant.
	ReadOnly      bool
	ReadOnlyKnown bool
}

// FindBodies returns every transaction-body closure in the files: all
// function literals of type func(stm.Tx) error. Literals passed directly to
// a call also carry the call and, when determinable, the constant readOnly
// argument of that call.
func FindBodies(info *types.Info, files []*ast.File) []Body {
	parentCall := make(map[*ast.FuncLit]*ast.CallExpr)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					parentCall[lit] = call
				}
			}
			return true
		})
	}

	var bodies []Body
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			sig, ok := info.Types[lit].Type.(*types.Signature)
			if !ok || !IsBodySig(sig) {
				return true
			}
			b := Body{Lit: lit}
			if params := lit.Type.Params.List; len(params) == 1 && len(params[0].Names) == 1 {
				if name := params[0].Names[0]; name.Name != "_" {
					b.TxParam = info.Defs[name]
				}
			}
			if call := parentCall[lit]; call != nil {
				b.Call = call
				b.ReadOnly, b.ReadOnlyKnown = readOnlyArg(info, call)
			}
			bodies = append(bodies, b)
			return true
		})
	}
	return bodies
}

// readOnlyArg finds the callee's bool parameter named readOnly (or ro) and
// returns the constant value of the corresponding argument.
func readOnlyArg(info *types.Info, call *ast.CallExpr) (val, known bool) {
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return false, false
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		p := sig.Params().At(i)
		if p.Name() != "readOnly" && p.Name() != "ro" {
			continue
		}
		if b, ok := p.Type().(*types.Basic); !ok || b.Kind() != types.Bool {
			continue
		}
		tv, ok := info.Types[call.Args[i]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
			return false, false
		}
		return constant.BoolVal(tv.Value), true
	}
	return false, false
}

// FuncOf resolves the called function or method object of call, or nil.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// PkgPathOf returns the normalized package path of obj, or "".
func PkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return normPath(obj.Pkg().Path())
}

// IsStmFunc reports whether fn is the named package-level function of the
// stm package (e.g. "Atomically", "Retry").
func IsStmFunc(fn *types.Func, name string) bool {
	return fn != nil && fn.Name() == name && PkgPathOf(fn) == StmPath &&
		fn.Type().(*types.Signature).Recv() == nil
}

// IsAtomicallyCall reports whether call starts a transaction: a call to any
// package-level stm function named with the Atomically prefix (Atomically,
// AtomicallyCtx, AtomicallyGated). The name alone is not enough: a
// user-defined Atomically* helper in another package, or a method that merely
// shares the name, does not start a transaction and must not trip the
// body-discipline analyzers.
func IsAtomicallyCall(info *types.Info, call *ast.CallExpr) bool {
	fn := FuncOf(info, call)
	return fn != nil && strings.HasPrefix(fn.Name(), "Atomically") && PkgPathOf(fn) == StmPath &&
		fn.Type().(*types.Signature).Recv() == nil
}

// commitLoggerIface locates the stm.CommitLogger interface type as seen by
// pkg: the stm package's own scope when pkg is stm (or its test variant),
// otherwise the scope of pkg's direct stm import. Nil when pkg cannot see
// the interface — then nothing in pkg can implement it relevantly either.
func commitLoggerIface(pkg *types.Package) *types.Interface {
	if pkg == nil {
		return nil
	}
	stm := pkg
	if normPath(pkg.Path()) != StmPath {
		stm = nil
		for _, imp := range pkg.Imports() {
			if normPath(imp.Path()) == StmPath {
				stm = imp
				break
			}
		}
		if stm == nil {
			return nil
		}
	}
	obj := stm.Scope().Lookup("CommitLogger")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// IsCommitLoggerMethod reports whether fn is a method through which its
// receiver type satisfies stm.CommitLogger: the receiver (or a pointer to
// it) implements the interface and fn's name is in the interface's method
// set. Such methods are the engines' commit-path durability seam — invoked
// once per commit with write locks held, never from inside a re-executable
// transaction body — which is why txpurity exempts them from the body
// purity discipline. A mere name match (an Append on a type that does not
// implement the interface) does not qualify.
func IsCommitLoggerMethod(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	iface := commitLoggerIface(fn.Pkg())
	if iface == nil {
		return false
	}
	inSet := false
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == fn.Name() {
			inSet = true
			break
		}
	}
	if !inSet {
		return false
	}
	recv := sig.Recv().Type()
	if types.Implements(recv, iface) {
		return true
	}
	if _, isPtr := recv.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(recv), iface)
	}
	return false
}

// IsTxWrite reports whether call invokes stm.Tx.Write (on the interface or
// any value whose static type is stm.Tx).
func IsTxWrite(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Write" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && IsTx(tv.Type)
}

// IsTVarSet reports whether call invokes (*stm.TVar[T]).Set, the typed
// wrapper over Tx.Write.
func IsTVarSet(info *types.Info, call *ast.CallExpr) bool {
	return isTVarMethod(info, call, "Set")
}

// isTVarMethod reports whether call invokes the named method with a
// *stm.TVar[T] receiver (the stm package has other types with Get/Set
// methods, e.g. WriteSet).
func isTVarMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := FuncOf(info, call)
	if fn == nil || fn.Name() != name || PkgPathOf(fn) != StmPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	return isNamed && named.Obj().Name() == "TVar"
}

// IsTxRead reports whether call invokes stm.Tx.Read.
func IsTxRead(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Read" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && IsTx(tv.Type)
}

// IsTVarGet reports whether call invokes (*stm.TVar[T]).Get, the typed
// wrapper over Tx.Read.
func IsTVarGet(info *types.Info, call *ast.CallExpr) bool {
	return isTVarMethod(info, call, "Get")
}
