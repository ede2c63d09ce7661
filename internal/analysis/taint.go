package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// The analyzers recognise the trust-boundary types structurally — by package
// suffix plus type name — so the same rules apply to the real module
// ("confio/internal/shmem".Region) and to the stub packages in the test
// corpora ("shmem".Region).

// pkgHasSuffix reports whether pkg's import path is suffix or ends in
// "/suffix".
func pkgHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// namedType unwraps pointers and aliases down to a *types.Named, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeIs reports whether t (possibly behind pointers) is the named type
// name defined in a package whose path ends in pkgSuffix.
func typeIs(t types.Type, pkgSuffix, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	return n.Obj().Name() == name && pkgHasSuffix(n.Obj().Pkg(), pkgSuffix)
}

// exprString renders an expression in canonical gofmt form, used to compare
// receiver/offset expressions syntactically across fetch sites.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}

// sharedReadMethods lists (receiver type predicate, method names) pairs that
// constitute a fetch from host-writable shared memory.
var regionReadMethods = map[string]bool{
	"Byte": true, "U16": true, "U32": true, "U64": true,
	"ReadAt": true, "Slice": true,
}

var indexLoadMethods = map[string]bool{
	"LoadProd": true, "LoadCons": true,
}

// ringSnapshotMethods are descriptor/payload fetches on ring types. They are
// the sanctioned single-fetch accessors, so calling one twice for the same
// position in one function is itself a double fetch.
var ringSnapshotMethods = map[string]bool{
	"ReadDesc": true, "ReadInline": true, "UsedEntry": true,
}

// sharedRead classifies a call expression as a fetch from shared memory.
// It returns the receiver expression and a stable kind string, or ok=false.
func sharedRead(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, k := call.Fun.(*ast.SelectorExpr)
	if !k {
		return nil, "", false
	}
	selInfo, k := info.Selections[sel]
	if !k || selInfo.Kind() != types.MethodVal {
		return nil, "", false
	}
	name := sel.Sel.Name
	recvType := selInfo.Recv()
	switch {
	case typeIs(recvType, "shmem", "Region") && regionReadMethods[name]:
		return sel.X, name, true
	case typeIs(recvType, "safering", "Indexes") && indexLoadMethods[name]:
		return sel.X, name, true
	case ringSnapshotMethods[name] && inModulePackage(selInfo.Obj()):
		return sel.X, name, true
	}
	return nil, "", false
}

// inModulePackage reports whether obj is declared outside the standard
// library (i.e. in this module or a test corpus stub).
func inModulePackage(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path == "" {
		return false
	}
	// Standard library paths have no dot in their first element and are
	// never under confio/ or a bare testdata package. Cheap heuristic:
	// module packages here are "confio/..." or single-element stub paths.
	return strings.HasPrefix(path, "confio/") || !strings.Contains(path, ".") && !strings.Contains(path, "/")
}

// hostSource reports whether sel is a host-controlled field read of a
// safering.Desc (Len/Kind/Ref): a source wherever the descriptor came
// from. The call-shaped sources — Region, Indexes and ring snapshot
// loads — are the value-returning sharedRead calls.
func hostSource(info *types.Info, sel *ast.SelectorExpr) bool {
	selInfo, ok := info.Selections[sel]
	if !ok || selInfo.Kind() != types.FieldVal {
		return false
	}
	name := sel.Sel.Name
	return typeIs(selInfo.Recv(), "safering", "Desc") && (name == "Len" || name == "Ref" || name == "Kind")
}

// vkey identifies a validated quantity: a whole variable (field == "") or
// one host-controlled field of a snapshot struct (e.g. d.Len), so that
// checking d.Len does not launder d.Ref.
type vkey struct {
	obj   types.Object
	field string
}

// span is the source window in which a validation holds: uses after from
// and (when until is set) before until count as bounds-checked. An if-guard
// with a terminating body validates to the end of the function (until ==
// token.NoPos); a for-loop condition validates only inside the loop.
type span struct {
	from  token.Pos
	until token.Pos // token.NoPos: to end of function
}

func (s span) covers(pos token.Pos) bool {
	return pos > s.from && (s.until == token.NoPos || pos < s.until)
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// terminates reports whether a block ends control flow on every syntactic
// path that stays inside it: its last statement is a return, panic-like
// call, or a loop-control jump.
func terminates(block *ast.BlockStmt) bool {
	if block == nil || len(block.List) == 0 {
		return false
	}
	return stmtTerminates(block.List[len(block.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch n := calleeName(call); n {
			case "panic", "Fatal", "Fatalf", "Exit", "Goexit", "Fail", "FailNow", "Skip", "Skipf":
				return true
			}
		}
	case *ast.IfStmt:
		if st.Else == nil {
			return false
		}
		elseTerm := false
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseTerm = terminates(e)
		case *ast.IfStmt:
			elseTerm = stmtTerminates(e)
		}
		return terminates(st.Body) && elseTerm
	case *ast.BlockStmt:
		return terminates(st)
	}
	return false
}
