// Package atomichygiene implements the twm-lint analyzer that audits raw
// sync/atomic usage on struct fields.
//
// The engines' hot-path counters (stm.Stats shards, mvutil's active-set
// slots) moved to cache-line-padded, atomically-accessed layouts in the
// allocation overhaul; that design survives only if every access to an
// atomic field actually goes through sync/atomic and 64-bit fields keep
// the 8-byte alignment the atomic package demands on 32-bit platforms.
// The analyzer reports, per package:
//
//   - mixed access: a struct field that some code touches through
//     sync/atomic address-based calls (atomic.AddUint64(&s.f, ...)) and
//     other code reads or writes with a plain selector — a data race the
//     race detector only finds when both paths execute;
//   - alignment hazards: a raw int64/uint64 field used with 64-bit atomic
//     calls whose offset under 32-bit layout rules is not 8-byte aligned,
//     which panics on 386/arm (use an atomic.Int64/Uint64 field, which
//     carries its own alignment guarantee, or move the field first).
//
// A deliberate mixed access (e.g. a reset of a pooled descriptor that is
// provably unshared at that point) is declared with
// `//twm:allow atomichygiene <reason>`.
package atomichygiene

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the atomichygiene analysis.
var Analyzer = &framework.Analyzer{
	Name: "atomichygiene",
	Doc:  "report struct fields mixing sync/atomic and plain access, and misalignable 64-bit atomic fields",
	Run:  run,
}

// atomicUse records how a field is accessed atomically.
type atomicUse struct {
	pos    token.Pos
	name   string // the sync/atomic function used
	is64   bool
	parent *types.Struct // owning struct layout, for the alignment check
}

func run(pass *framework.Pass) error {
	info := pass.TypesInfo

	// Phase 1: find address-based sync/atomic calls on struct fields.
	uses := make(map[*types.Var]atomicUse)
	inAtomicArg := make(map[*ast.SelectorExpr]bool)
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calledAtomicFunc(info, call)
		if fn == nil || len(call.Args) == 0 {
			return true
		}
		unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || unary.Op != token.AND {
			return true
		}
		sel, ok := ast.Unparen(unary.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field, parent := fieldOf(info, sel)
		if field == nil {
			return true
		}
		inAtomicArg[sel] = true
		if _, seen := uses[field]; !seen {
			uses[field] = atomicUse{
				pos:    call.Pos(),
				name:   fn.Name(),
				is64:   strings.HasSuffix(fn.Name(), "64"),
				parent: parent,
			}
		}
		return true
	})
	if len(uses) == 0 {
		return nil
	}

	// Phase 2: plain accesses to those same fields.
	pass.Inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || inAtomicArg[sel] {
			return true
		}
		field, _ := fieldOf(info, sel)
		if field == nil {
			return true
		}
		use, ok := uses[field]
		if !ok {
			return true
		}
		pass.Reportf(sel.Pos(), "field %s is accessed with atomic.%s elsewhere but plainly here; mixed access races", field.Name(), use.name)
		return true
	})

	// Phase 3: 32-bit alignment of 64-bit atomically-accessed raw fields.
	sizes := types.SizesFor("gc", "386")
	reported := make(map[*types.Var]bool)
	for field, use := range uses {
		if !use.is64 || use.parent == nil || reported[field] {
			continue
		}
		reported[field] = true
		fields := make([]*types.Var, use.parent.NumFields())
		idx := -1
		for i := 0; i < use.parent.NumFields(); i++ {
			fields[i] = use.parent.Field(i)
			if fields[i] == field {
				idx = i
			}
		}
		if idx < 0 {
			continue
		}
		offsets := sizes.Offsetsof(fields)
		if offsets[idx]%8 != 0 {
			pass.Reportf(field.Pos(), "64-bit atomic field %s is at offset %d under 32-bit layout and may fault in atomic.%s; use atomic.Int64/Uint64 (self-aligning) or move it to the front of the struct", field.Name(), offsets[idx], use.name)
		}
	}
	return nil
}

// calledAtomicFunc returns the called package-level sync/atomic function,
// or nil (methods on atomic.Uint64 etc. manage their own discipline).
func calledAtomicFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// fieldOf resolves sel to a struct field object and the struct layout that
// owns it; (nil, nil) if sel is not a field selection.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) (*types.Var, *types.Struct) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, nil
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return nil, nil
	}
	recv := s.Recv()
	for {
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
			continue
		}
		break
	}
	st, _ := recv.Underlying().(*types.Struct)
	return field, st
}
