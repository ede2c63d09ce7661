package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedAtomicAnalyzer enforces the shared-word atomicity rule: index and
// epoch cells that both endpoints of a confidential I/O channel write —
// ring producer/consumer indexes, epoch words — are racing with a hostile
// peer by construction, so every load and store must go through
// sync/atomic. A plain read of such a word is not merely a Go data race:
// torn or stale values feed directly into the trust-boundary validation
// the other rules protect.
//
// Shared words are identified two ways: structurally (the prod/cons fields
// of a safering.Indexes are shared by definition, real module and corpus
// stub alike) and by annotation — a //ciovet:shared comment on a struct
// field declares it host-visible:
//
//	//ciovet:shared host advances this under the guest's feet
//	prod uint64
//
// Legal access shapes are exactly two: the field used as the receiver of a
// method call on a sync/atomic type (ix.prod.Load()), or &field passed to
// a sync/atomic package function (atomic.LoadUint64(&ix.prod)). Everything
// else — plain reads, plain writes, copying an atomic-typed field as a
// value — is reported.
var SharedAtomicAnalyzer = &Analyzer{
	Name: "sharedatomic",
	Doc: "requires every access to host-shared index/epoch words (safering.Indexes fields " +
		"and //ciovet:shared-marked fields) to go through sync/atomic",
	Run: runSharedAtomic,
}

// atomicMethods are the access methods of the sync/atomic value types.
var atomicMethods = map[string]bool{
	"Load": true, "Store": true, "Add": true, "Swap": true, "CompareAndSwap": true,
}

func runSharedAtomic(pass *Pass) error {
	marked := sharedMarkedFields(pass)
	for _, file := range pass.Files {
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isSharedWord(pass.TypesInfo, marked, sel) {
				return true
			}
			if atomicAccess(pass.TypesInfo, stack) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"shared-memory word %s accessed without sync/atomic; the host races on this cell — "+
					"use an atomic load/store (sharedatomic)",
				exprString(pass.Fset, sel))
			return true
		})
	}
	return nil
}

// sharedMarkedFields collects the struct fields whose declaration line (or
// the line below a standalone directive) carries //ciovet:shared.
func sharedMarkedFields(pass *Pass) map[*types.Var]bool {
	lines := buildMarkerLines(pass.Fset, pass.Files, "//ciovet:shared")
	marked := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !lines.covers(pass.Fset, fld.Pos()) {
					continue
				}
				for _, nm := range fld.Names {
					if v, ok := pass.TypesInfo.Defs[nm].(*types.Var); ok {
						marked[v] = true
					}
				}
			}
			return true
		})
	}
	return marked
}

// isSharedWord reports whether sel selects a host-shared field: annotated,
// or a prod/cons index cell of a safering.Indexes.
func isSharedWord(info *types.Info, marked map[*types.Var]bool, sel *ast.SelectorExpr) bool {
	si, ok := info.Selections[sel]
	if !ok || si.Kind() != types.FieldVal {
		return false
	}
	v, ok := si.Obj().(*types.Var)
	if !ok {
		return false
	}
	if marked[v] {
		return true
	}
	return (v.Name() == "prod" || v.Name() == "cons") && typeIs(si.Recv(), "safering", "Indexes")
}

// atomicAccess reports whether the shared-word selector at the top of the
// walk is in one of the two sanctioned contexts.
func atomicAccess(info *types.Info, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		// field.Load() / field.Store(v): a called method of a sync/atomic type.
		mi, ok := info.Selections[p]
		if !ok || mi.Kind() != types.MethodVal {
			return false
		}
		fn, ok := mi.Obj().(*types.Func)
		if !ok || !atomicMethods[fn.Name()] || !pkgHasSuffix(fn.Pkg(), "sync/atomic") {
			return false
		}
		if len(stack) < 2 {
			return false
		}
		call, ok := stack[len(stack)-2].(*ast.CallExpr)
		return ok && call.Fun == ast.Expr(p)
	case *ast.UnaryExpr:
		// atomic.LoadUint64(&field): address taken straight into a
		// sync/atomic package function.
		if p.Op != token.AND || len(stack) < 2 {
			return false
		}
		call, ok := stack[len(stack)-2].(*ast.CallExpr)
		if !ok {
			return false
		}
		fsel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := info.Uses[fsel.Sel].(*types.Func)
		return ok && pkgHasSuffix(fn.Pkg(), "sync/atomic")
	}
	return false
}
