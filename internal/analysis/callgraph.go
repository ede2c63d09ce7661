package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// htFunc is one function declared with a body in the analyzed package,
// as seen by the interprocedural taint analysis. The receiver (when
// present) occupies parameter slot 0 so method calls and plain calls
// share one argument-alignment scheme.
type htFunc struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	params  []types.Object // receiver first; nil for unnamed/blank slots
	results []types.Object // named result objects; nil for unnamed
	graph   *funcCFG       // built on first use, by the CFG-based rules
}

// cfg returns the body's control-flow graph, built once.
func (f *htFunc) cfg() *funcCFG {
	if f.graph == nil {
		f.graph = buildCFG(f.decl.Body)
	}
	return f.graph
}

// paramIndex returns the slot of o in f's parameter list, or -1.
func (f *htFunc) paramIndex(o types.Object) int {
	for i, p := range f.params {
		if p != nil && p == o {
			return i
		}
	}
	return -1
}

// numResults returns the declared result count.
func (f *htFunc) numResults() int {
	if f.decl.Type.Results == nil {
		return 0
	}
	n := 0
	for _, fld := range f.decl.Type.Results.List {
		if len(fld.Names) == 0 {
			n++
		} else {
			n += len(fld.Names)
		}
	}
	return n
}

// summaries is the interprocedural engine hosttaint, bufown and
// lockdisc share: the package's functions and a two-phase solver. Each
// analyzer embeds it and keeps its own per-function summary, setting
// changed when a walk grows one and emitting diagnostics only when
// report is set.
type summaries struct {
	pass    *Pass
	fns     map[*types.Func]*htFunc
	ordered []*htFunc // stable source order
	changed bool
	report  bool
}

// solve walks every function until no summary changes, then once more
// with report set and the summaries final. Every summary lattice is
// finite and only grows, so phase one terminates; the cap is a
// backstop.
func (s *summaries) solve(walk func(*htFunc)) {
	for iter := 0; iter < 64; iter++ {
		s.changed = false
		for _, hf := range s.ordered {
			walk(hf)
		}
		if !s.changed {
			break
		}
	}
	s.report = true
	for _, hf := range s.ordered {
		walk(hf)
	}
}

// newSummaries gathers every declared function/method with a body,
// keyed by its types.Func.
func newSummaries(pass *Pass) summaries {
	byObj := make(map[*types.Func]*htFunc)
	var ordered []*htFunc
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			hf := &htFunc{decl: fd, obj: fn}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				names := fd.Recv.List[0].Names
				if len(names) > 0 {
					hf.params = append(hf.params, defObj(pass.TypesInfo, names[0]))
				} else {
					hf.params = append(hf.params, nil)
				}
			}
			if fd.Type.Params != nil {
				for _, fld := range fd.Type.Params.List {
					if len(fld.Names) == 0 {
						hf.params = append(hf.params, nil)
						continue
					}
					for _, nm := range fld.Names {
						hf.params = append(hf.params, defObj(pass.TypesInfo, nm))
					}
				}
			}
			if fd.Type.Results != nil {
				for _, fld := range fd.Type.Results.List {
					if len(fld.Names) == 0 {
						hf.results = append(hf.results, nil)
						continue
					}
					for _, nm := range fld.Names {
						hf.results = append(hf.results, defObj(pass.TypesInfo, nm))
					}
				}
			}
			byObj[fn] = hf
			ordered = append(ordered, hf)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].decl.Pos() < ordered[j].decl.Pos() })
	return summaries{pass: pass, fns: byObj, ordered: ordered}
}

func defObj(info *types.Info, id *ast.Ident) types.Object {
	if id == nil || id.Name == "_" {
		return nil
	}
	return info.Defs[id]
}

// resolveCallee statically resolves a call expression to its callee
// regardless of which package declares it, returning the callee's origin
// *types.Func (generic instantiations map back to their declaration) and
// the argument expressions aligned to its parameter slots (receiver
// expression first for method calls). Dynamic calls — interface methods,
// function values, method expressions — return nil.
func resolveCallee(info *types.Info, call *ast.CallExpr) (*types.Func, []ast.Expr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin(), call.Args
		}
	case *ast.IndexExpr:
		// Explicitly instantiated generic function: F[T](args).
		if id, ok := fun.X.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn.Origin(), call.Args
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, nil
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, nil
			}
			args := make([]ast.Expr, 0, len(call.Args)+1)
			args = append(args, fun.X)
			args = append(args, call.Args...)
			return fn.Origin(), args
		}
		// Package-qualified call (pkg.F).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin(), call.Args
		}
	}
	return nil, nil
}

// resolveCall statically resolves a call expression to a function declared
// in this package, returning its htFunc and the aligned arguments. Calls
// that resolveCallee cannot resolve, and callees declared elsewhere,
// return nil — the caller falls back to imported facts or conservatism.
func resolveCall(info *types.Info, fns map[*types.Func]*htFunc, call *ast.CallExpr) (*htFunc, []ast.Expr) {
	fn, args := resolveCallee(info, call)
	if fn == nil {
		return nil, nil
	}
	if hf := fns[fn]; hf != nil {
		return hf, args
	}
	return nil, nil
}
