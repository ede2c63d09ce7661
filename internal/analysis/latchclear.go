package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LatchClearAnalyzer enforces the recovery half of fail-dead: death is
// cleared only by reincarnation. A DeathLatch reset or a `dead = nil`
// assignment anywhere outside a Reincarnate path would silently reopen
// the recoverable-error surface the fail-dead principle exists to remove
// — a host could then get a device revived without passing the
// quarantine (backoff + death budget) or the epoch bump that makes old
// descriptors unreplayable.
var LatchClearAnalyzer = &Analyzer{
	Name: "latchclear",
	Doc: "flags code that clears fail-dead state (DeathLatch reset, dead-field " +
		"nil-assignment) outside a Reincarnate function; recovery must pass the quarantine",
	Run: runLatchClear,
}

// deadFieldNames are the endpoint fields that record fatal device state.
var deadFieldNames = map[string]bool{
	"dead":   true,
	"deadOp": true,
}

func runLatchClear(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				// Closures inherit the enclosing function's dispensation:
				// Reincarnate may defer cleanup through one.
				scanLatchClear(pass, fd.Body, fd.Name.Name)
				continue
			}
			// Package-level var initializers carry no Reincarnate
			// dispensation.
			ast.Inspect(decl, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					scanLatchClear(pass, lit.Body, "")
					return false
				}
				return true
			})
		}
	}
	return nil
}

func scanLatchClear(pass *Pass, body ast.Node, fnName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			checkDeadClear(pass, st, fnName)
		case *ast.CallExpr:
			checkLatchReset(pass, st, fnName)
		}
		return true
	})
}

// inReincarnate reports whether the function name marks the sanctioned
// recovery path. A queue's rebirthLocked is not one: it rebuilds the
// shared window and leaves death to safering.Life.Reincarnate, the one
// function in the tree that clears it.
func inReincarnate(name string) bool {
	return strings.Contains(strings.ToLower(name), "reincarnate")
}

// checkDeadClear flags `x.dead = nil` (and deadOp), in single or tuple
// assignments, outside Reincarnate.
func checkDeadClear(pass *Pass, st *ast.AssignStmt, fnName string) {
	if inReincarnate(fnName) {
		return
	}
	for i, lhs := range st.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !deadFieldNames[sel.Sel.Name] {
			continue
		}
		// Only field selections count; a local variable named `dead` is
		// not device state.
		if si, ok := pass.TypesInfo.Selections[sel]; !ok || si.Kind() != types.FieldVal {
			continue
		}
		var rhs ast.Expr
		switch {
		case len(st.Rhs) == len(st.Lhs):
			rhs = st.Rhs[i]
		case len(st.Rhs) == 1:
			rhs = st.Rhs[0]
		}
		if id, ok := rhs.(*ast.Ident); ok && id.Name == "nil" {
			pass.Reportf(st.Pos(),
				"fail-dead state %q cleared outside a Reincarnate path: recovery must pass the quarantine (latchclear rule)",
				sel.Sel.Name)
		}
	}
}

// checkLatchReset flags (*DeathLatch).reset calls outside Reincarnate.
func checkLatchReset(pass *Pass, call *ast.CallExpr, fnName string) {
	if inReincarnate(fnName) {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "reset" && sel.Sel.Name != "Reset" {
		return
	}
	si, ok := pass.TypesInfo.Selections[sel]
	if !ok || si.Kind() != types.MethodVal {
		return
	}
	n := namedType(si.Recv())
	if n == nil || n.Obj().Name() != "DeathLatch" {
		return
	}
	pass.Reportf(call.Pos(),
		"DeathLatch cleared outside a Reincarnate path: recovery must pass the quarantine (latchclear rule)")
}
