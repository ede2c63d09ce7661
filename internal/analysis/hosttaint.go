package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HostTaintAnalyzer enforces the paper's masked-ring rule (ring design
// principle: "out-of-range is unrepresentable by construction"; Fig. 2-4
// bug class: missing validation of host-controlled indices and lengths,
// the class VIA found by fuzzing protected-VM device interfaces). Any
// value that flows from host-writable shared memory — descriptor fields,
// index cells, region loads — must pass a sanitizer before it indexes or
// bounds a slice, sizes an allocation, sets the length of a Region.Slice
// view, bounds a loop, or becomes a uintptr or unsafe.Pointer. The flow
// may stay inside one function or cross any number of calls: the real
// CVE-shaped flows read a length in one function and use it three calls
// away.
//
// The analysis is summary-based and runs in two phases over the call
// graph of the package under analysis. Phase one computes, per function,
// a taint summary to a fixpoint: which results carry host taint
// unconditionally, which results are tainted when a given parameter is,
// which parameters reach a sink without first passing a sanitizer, and
// which parameters the function checks in a terminating guard. Phase two
// re-walks every function with the final summaries and reports each host
// value arriving at a sink, and each one passed to a parameter that
// (transitively) reaches a sink in the callee. Closures are not walked:
// they have no summary, and their captured state is unknown.
//
// Sanitizers are masking (&, %, >>, &^); comparisons in a guard whose body
// terminates (an if, a switch case, or a validator call whose error result
// is checked that way); the upper-bounded side of a for-loop condition,
// inside the loop only; min/max capping against a trusted bound;
// overwriting with a trusted value; and the //ciovet:sanitized
// annotation, which marks the values assigned on a line (or every result
// of an annotated function) as audited-clean at the definition.
// Validation is per field: checking d.Len says nothing about d.Ref.
//
// Calls that cannot be resolved statically (interface methods, function
// values) are treated as clean. Statically resolved out-of-package
// callees consult the fact layer: under the module driver (RunModule)
// every dependency is analyzed first and its summaries exported as
// TaintFacts, so a length fetched from shared memory inside safering and
// returned to a caller in nic is tracked across the package boundary.
// Outside the module driver (single-package Run) no facts are loaded and
// such callees stay conservative-clean.
var HostTaintAnalyzer = &Analyzer{
	Name: "hosttaint",
	Doc: "flags shared-memory values that reach indexing, slicing, allocation, Region.Slice, " +
		"loop-bound, or unsafe sinks neither masked nor bounds-checked, within or across functions",
	Run: runHostTaint,
}

// paramBits is a set of parameter slots (receiver = slot 0 on methods).
// Parameters beyond 64 are untracked — no function here comes close.
type paramBits uint64

const maxTrackedParams = 64

func paramBit(i int) paramBits {
	if i < 0 || i >= maxTrackedParams {
		return 0
	}
	return paramBits(1) << uint(i)
}

// tval is the abstract taint of an expression.
type tval struct {
	host   bool      // host-controlled
	via    string    // callee the taint crossed through, for diagnostics
	params paramBits // tainted iff one of these caller parameters is
}

func unionT(a, b tval) tval {
	out := tval{
		host:   a.host || b.host,
		via:    a.via,
		params: a.params | b.params,
	}
	if out.via == "" {
		out.via = b.via
	}
	return out
}

// htState is the package-wide analysis state shared by both phases. A
// function's summary has the shape of the fact it is exported as.
type htState struct {
	pass      *Pass
	fns       map[*types.Func]*htFunc
	ordered   []*htFunc
	sums      map[*htFunc]*TaintFact
	sanitized sanitizedIndex
	changed   bool
	report    bool
}

func runHostTaint(pass *Pass) error {
	st := &htState{
		pass:      pass,
		sanitized: buildSanitizedIndex(pass.Fset, pass.Files),
	}
	st.fns, st.ordered = collectFuncs(pass)
	st.sums = make(map[*htFunc]*TaintFact, len(st.ordered))
	for _, hf := range st.ordered {
		n := hf.numResults()
		st.sums[hf] = &TaintFact{
			RetTainted: make([]bool, n),
			RetFrom:    make([]paramBits, n),
			ParamSink:  make(map[int]string),
			Sanitized:  st.sanitized.covers(pass.Fset, hf.decl.Pos()),
		}
	}

	// Phase one: grow summaries to a fixpoint. The lattice per function is
	// finite (result bits, param bits, one sink note per param) and only
	// ever grows, so this terminates; the iteration cap is a backstop.
	for iter := 0; iter < 64; iter++ {
		st.changed = false
		for _, hf := range st.ordered {
			st.analyzeFunc(hf)
		}
		if !st.changed {
			break
		}
	}

	// Phase two: report with final summaries.
	st.report = true
	for _, hf := range st.ordered {
		st.analyzeFunc(hf)
	}

	// Export the summaries that tell a caller something, as facts for
	// dependents.
	for _, hf := range st.ordered {
		if sum := st.sums[hf]; informative(sum) {
			pass.ExportTaint(hf.obj, sum)
		}
	}
	return nil
}

// informative reports whether a final summary says anything a caller
// could use.
func informative(sum *TaintFact) bool {
	if sum.Sanitized || sum.ParamChecked != 0 || len(sum.ParamSink) > 0 {
		return true
	}
	for r, b := range sum.RetTainted {
		if b || sum.RetFrom[r] != 0 {
			return true
		}
	}
	return false
}

// htScope is the per-function evaluation state.
type htScope struct {
	st        *htState
	fn        *htFunc
	sum       *TaintFact
	vars      map[types.Object]tval
	validated map[vkey][]span
}

func (st *htState) analyzeFunc(hf *htFunc) {
	sum := st.sums[hf]
	if sum.Sanitized {
		return
	}
	sc := &htScope{
		st:        st,
		fn:        hf,
		sum:       sum,
		vars:      make(map[types.Object]tval),
		validated: make(map[vkey][]span),
	}
	sc.walkBody(hf.decl.Body)
}

func (sc *htScope) info() *types.Info { return sc.st.pass.TypesInfo }

func (sc *htScope) obj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := sc.info().Uses[id]; o != nil {
		return o
	}
	return sc.info().Defs[id]
}

func (sc *htScope) isValidated(key vkey, pos token.Pos) bool {
	for _, s := range sc.validated[key] {
		if s.covers(pos) {
			return true
		}
	}
	return false
}

// walkBody drives the source-order statement walk.
func (sc *htScope) walkBody(body *ast.BlockStmt) {
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && len(stack) > 0 {
			return false // closures are separate, unsummarized functions
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(stack) > 0 {
				if f, ok := stack[len(stack)-1].(*ast.ForStmt); ok && f.Init == ast.Stmt(st) {
					break // handled when the ForStmt itself was visited
				}
			}
			sc.assignStmt(st)
		case *ast.ValueSpec:
			sc.valueSpec(st)
		case *ast.IfStmt:
			sc.guard(st.Cond, st.Body)
			sc.checkerGuard(st)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				cc := c.(*ast.CaseClause)
				guardBody := &ast.BlockStmt{List: cc.Body}
				for _, cond := range cc.List {
					sc.guard(cond, guardBody)
				}
			}
		case *ast.ForStmt:
			// The init runs here, before the condition is read as a guard
			// and a sink, so the guard sees the init's taint.
			if init, ok := st.Init.(*ast.AssignStmt); ok {
				sc.assignStmt(init)
			}
			sc.forGuardAndSink(st)
		case *ast.RangeStmt:
			sc.rangeStmt(st)
		case *ast.ReturnStmt:
			sc.returnStmt(st)
		case *ast.IndexExpr:
			if indexableSink(sc.info(), st.X) {
				t := sc.eval(st.Index, st.Pos())
				sc.sink(st.Index.Pos(), t, "indexes "+exprString(sc.st.pass.Fset, st.X))
			}
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{st.Low, st.High, st.Max} {
				if b != nil {
					t := sc.eval(b, st.Pos())
					sc.sink(b.Pos(), t, "bounds a slice of "+exprString(sc.st.pass.Fset, st.X))
				}
			}
		case *ast.CallExpr:
			sc.callStmt(st)
		}
		return true
	})
}

// indexableSink reports whether indexing into x needs bounds discipline
// (slices, arrays, strings — not maps, whose keys need no range check).
func indexableSink(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok {
		return false
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	switch u := t.(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// sink handles taint arriving at a dangerous use: parameter taint goes
// into the summary; host taint is reported in phase two.
func (sc *htScope) sink(pos token.Pos, t tval, desc string) {
	if t.params != 0 {
		sc.recordParamSink(t.params, desc)
	}
	if sc.st.report && t.host {
		sc.st.pass.Reportf(pos, "host-controlled value%s %s without mask or bounds check on this path; "+
			"validate and fail-dead, mask it, or audit with //ciovet:sanitized (hosttaint)", viaClause(t), desc)
	}
}

func viaClause(t tval) string {
	if t.via != "" {
		return " (via " + t.via + ")"
	}
	return ""
}

func (sc *htScope) recordParamSink(bits paramBits, desc string) {
	if len(desc) > 160 {
		desc = desc[:157] + "..."
	}
	for i := 0; i < len(sc.fn.params) && i < maxTrackedParams; i++ {
		if bits&paramBit(i) == 0 {
			continue
		}
		if _, ok := sc.sum.ParamSink[i]; !ok {
			sc.sum.ParamSink[i] = desc
			sc.st.changed = true
		}
	}
}

// assign records the abstract value of one variable, dropping any
// validation of its old value.
func (sc *htScope) assign(o types.Object, t tval) {
	if o == nil {
		return
	}
	sc.vars[o] = t
	for k := range sc.validated {
		if k.obj == o {
			delete(sc.validated, k)
		}
	}
}

func (sc *htScope) assignStmt(st *ast.AssignStmt) {
	if sc.st.sanitized.covers(sc.st.pass.Fset, st.Pos()) {
		for _, l := range st.Lhs {
			sc.assign(sc.obj(l), tval{})
		}
		return
	}
	switch st.Tok {
	case token.AND_ASSIGN, token.REM_ASSIGN, token.SHR_ASSIGN, token.AND_NOT_ASSIGN:
		for _, l := range st.Lhs {
			sc.assign(sc.obj(l), tval{})
		}
		return
	}
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		ts := sc.evalMulti(st.Rhs[0], st.Pos(), len(st.Lhs))
		for i, l := range st.Lhs {
			sc.assignTo(l, ts[i], st.Tok)
		}
		return
	}
	for i, l := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		sc.assignTo(l, sc.eval(st.Rhs[i], st.Pos()), st.Tok)
	}
}

// assignTo writes t through an lvalue. Writes through a selector or index
// taint the base object field-insensitively: `d.Len = region.U32(off)`
// makes the snapshot d a tainted value when it is later returned whole.
func (sc *htScope) assignTo(l ast.Expr, t tval, tok token.Token) {
	switch lv := l.(type) {
	case *ast.Ident:
		o := sc.obj(lv)
		if o == nil {
			return
		}
		switch tok {
		case token.ASSIGN, token.DEFINE:
			sc.assign(o, t)
		default: // op=: both old and new value contribute
			old := sc.lookup(o, l.Pos())
			sc.assign(o, unionT(old, t))
		}
	case *ast.SelectorExpr:
		if base := sc.obj(lv.X); base != nil {
			old := sc.lookup(base, l.Pos())
			sc.vars[base] = unionT(old, t)
		}
	case *ast.IndexExpr:
		if base := sc.obj(lv.X); base != nil {
			old := sc.lookup(base, l.Pos())
			sc.vars[base] = unionT(old, t)
		}
	case *ast.StarExpr, *ast.ParenExpr:
		// Writes through pointers are not tracked.
	}
}

func (sc *htScope) valueSpec(st *ast.ValueSpec) {
	if sc.st.sanitized.covers(sc.st.pass.Fset, st.Pos()) {
		for _, id := range st.Names {
			sc.assign(sc.obj(id), tval{})
		}
		return
	}
	if len(st.Names) > 1 && len(st.Values) == 1 {
		ts := sc.evalMulti(st.Values[0], st.Pos(), len(st.Names))
		for i, id := range st.Names {
			sc.assign(sc.obj(id), ts[i])
		}
		return
	}
	for i, id := range st.Names {
		var t tval
		if i < len(st.Values) {
			t = sc.eval(st.Values[i], st.Pos())
		}
		sc.assign(sc.obj(id), t)
	}
}

// lookup resolves the current abstract value of an object: an assigned
// local, or a parameter of the function under analysis.
func (sc *htScope) lookup(o types.Object, pos token.Pos) tval {
	if o == nil {
		return tval{}
	}
	if sc.isValidated(vkey{o, ""}, pos) {
		return tval{}
	}
	if t, ok := sc.vars[o]; ok {
		return t
	}
	if i := sc.fn.paramIndex(o); i >= 0 {
		return tval{params: paramBit(i)}
	}
	return tval{}
}

// guard records that quantities compared in cond count as validated once
// the comparison has executed, provided the guarded body terminates (the
// fail-dead shape: `if hostVal > bound { return fail }`). Validation takes
// effect from the end of the comparison itself, so the short-circuit idiom
// `idx >= n || !seen[idx]` counts as guarded, and lasts to the end of the
// function. A guard that merely logs and continues validates nothing.
func (sc *htScope) guard(cond ast.Expr, body *ast.BlockStmt) {
	if cond == nil || !terminates(body) {
		return
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LAND, token.LOR:
				walk(x.X)
				walk(x.Y)
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				sc.markValidated(x.X, span{from: x.End(), until: token.NoPos})
				sc.markValidated(x.Y, span{from: x.End(), until: token.NoPos})
				sc.recordCheckedParams(x.X)
				sc.recordCheckedParams(x.Y)
			}
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			walk(x.X)
		}
	}
	walk(cond)
}

// recordCheckedParams notes in the summary every parameter of the current
// function that e (one side of a terminating-guard comparison) mentions:
// the function is acting as a validator for those parameters.
func (sc *htScope) recordCheckedParams(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if i := sc.fn.paramIndex(sc.obj(id)); i >= 0 {
			if bit := paramBit(i); sc.sum.ParamChecked&bit == 0 {
				sc.sum.ParamChecked |= bit
				sc.st.changed = true
			}
		}
		return true
	})
}

// checkerGuard credits the fail-dead validator-call idiom:
//
//	if err := ring.checkPeerCons(cons, ...); err != nil { return fail }
//
// When the guarded body terminates and the callee's summary says it
// bounds-checks a parameter in a terminating guard of its own, the
// argument passed in that slot counts as validated from here on.
func (sc *htScope) checkerGuard(st *ast.IfStmt) {
	if !terminates(st.Body) {
		return
	}
	init, ok := st.Init.(*ast.AssignStmt)
	if !ok || len(init.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(init.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	// The condition must actually test a value bound by the init —
	// the `err != nil` (or `!ok`) shape.
	condTestsInit := false
	ast.Inspect(st.Cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := sc.obj(id)
		for _, l := range init.Lhs {
			if o != nil && o == sc.obj(l) {
				condTestsInit = true
			}
		}
		return true
	})
	if !condTestsInit {
		return
	}
	_, sum, args := sc.callee(call)
	if sum == nil {
		return
	}
	for i, arg := range args {
		if sum.ParamChecked&paramBit(i) != 0 {
			sc.markValidated(arg, span{from: st.Cond.End(), until: token.NoPos})
		}
	}
}

// forGuardAndSink treats the loop condition both as a guard and as the
// loop-bound sink: a host-controlled limit spins the loop an
// attacker-chosen number of iterations. As a guard, the condition asserts
// its bound directly, so only the upper-bounded side of a comparison is
// validated — `for i > 0; i--` counting down from a host value bounds
// nothing — and only inside the loop: after exit the variable may hold any
// value the host chose beyond the bound.
func (sc *htScope) forGuardAndSink(st *ast.ForStmt) {
	if st.Cond == nil {
		return
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LAND:
				walk(x.X)
				walk(x.Y)
			case token.LSS, token.LEQ:
				t := sc.eval(x.Y, x.Y.Pos())
				sc.sink(x.Y.Pos(), t, "bounds a loop")
				sc.markValidated(x.X, span{from: x.End(), until: st.End()})
			case token.GTR, token.GEQ:
				t := sc.eval(x.X, x.X.Pos())
				sc.sink(x.X.Pos(), t, "bounds a loop")
				sc.markValidated(x.Y, span{from: x.End(), until: st.End()})
			}
			// LOR proves neither side; EQL/NEQ bound nothing.
		case *ast.ParenExpr:
			walk(x.X)
		}
	}
	walk(st.Cond)
}

// markValidated marks every variable and host-controlled snapshot field
// mentioned in e as validated within sp. Untainted identifiers are marked
// too: parameter taint is implicit, so there is no taint set to filter
// on. Spurious entries are harmless — the map is only consulted for
// tainted values.
func (sc *htScope) markValidated(e ast.Expr, sp span) {
	var walk func(n ast.Expr)
	walk = func(n ast.Expr) {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if o := sc.obj(id); o != nil {
					k := vkey{o, x.Sel.Name}
					sc.validated[k] = append(sc.validated[k], sp)
				}
			}
			walk(x.X)
		case *ast.Ident:
			if o := sc.obj(x); o != nil {
				k := vkey{o, ""}
				sc.validated[k] = append(sc.validated[k], sp)
			}
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.CallExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.IndexExpr:
			walk(x.X)
			walk(x.Index)
		}
	}
	walk(e)
}

// rangeStmt propagates taint through a range statement: ranging over a
// host-controlled slice (e.g. a Region.Slice view) yields host-controlled
// element values. The key is bounded by the range construct itself —
// except when ranging over a host-chosen integer, which is a host-bounded
// loop whose key runs up to the host's value.
func (sc *htScope) rangeStmt(st *ast.RangeStmt) {
	t := sc.eval(st.X, st.Pos())
	keyT := tval{}
	if tv, ok := sc.info().Types[st.X]; ok && tv.Type != nil {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			sc.sink(st.X.Pos(), t, "bounds a loop")
			keyT = t
		}
	}
	if st.Key != nil {
		sc.assign(sc.obj(st.Key), keyT)
	}
	if st.Value != nil {
		sc.assign(sc.obj(st.Value), t)
	}
}

func (sc *htScope) returnStmt(st *ast.ReturnStmt) {
	record := func(i int, t tval) {
		if i >= len(sc.sum.RetTainted) {
			return
		}
		if t.host && !sc.sum.RetTainted[i] {
			sc.sum.RetTainted[i] = true
			sc.st.changed = true
		}
		if t.params&^sc.sum.RetFrom[i] != 0 {
			sc.sum.RetFrom[i] |= t.params
			sc.st.changed = true
		}
	}
	nres := len(sc.sum.RetTainted)
	switch {
	case len(st.Results) == 0: // bare return: named results
		for i, ro := range sc.fn.results {
			if ro != nil {
				record(i, sc.lookup(ro, st.Pos()))
			}
		}
	case len(st.Results) == 1 && nres > 1: // return f()
		ts := sc.evalMulti(st.Results[0], st.Pos(), nres)
		for i, t := range ts {
			record(i, t)
		}
	default:
		for i, e := range st.Results {
			record(i, sc.eval(e, st.Pos()))
		}
	}
}

// callStmt applies the call-shaped sinks to one call expression: unsafe
// conversions, allocation sizes, Region.Slice lengths, and arguments
// flowing into parameters the callee's summary says reach a sink.
func (sc *htScope) callStmt(call *ast.CallExpr) {
	info := sc.info()
	// Conversion to unsafe.Pointer or uintptr.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isUnsafeTarget(tv.Type) {
			t := sc.eval(call.Args[0], call.Pos())
			sc.sink(call.Args[0].Pos(), t, "reaches an unsafe conversion")
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && len(call.Args) >= 2 {
		for _, sz := range call.Args[1:] {
			t := sc.eval(sz, call.Pos())
			sc.sink(sz.Pos(), t, "sizes an allocation")
		}
		return
	}
	// Region.Slice(off, n): off is masked inside, but n panics on wrap —
	// a host-controlled n is a remotely triggerable crash.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Slice" && len(call.Args) == 2 {
		if si, ok := info.Selections[sel]; ok && si.Kind() == types.MethodVal && typeIs(si.Recv(), "shmem", "Region") {
			t := sc.eval(call.Args[1], call.Pos())
			sc.sink(call.Args[1].Pos(), t, "reaches Region.Slice, which panics on wrap")
		}
	}
	fn, sum, args := sc.callee(call)
	if sum == nil || len(sum.ParamSink) == 0 {
		return
	}
	sig := fn.Type().(*types.Signature)
	slots := sig.Params().Len()
	if sig.Recv() != nil {
		slots++
	}
	for i, arg := range args {
		slot := min(i, slots-1) // a variadic tail binds to the last slot
		desc, ok := sum.ParamSink[slot]
		if !ok {
			continue
		}
		t := sc.eval(arg, arg.Pos())
		if t.params != 0 {
			sc.recordParamSink(t.params, "hands it to "+fn.Name()+", which "+desc)
		}
		if sc.st.report && t.host {
			sc.st.pass.Reportf(arg.Pos(),
				"host-controlled value%s passed to parameter %q of %s, which %s without revalidation; "+
					"validate or mask it before the call (hosttaint)",
				viaClause(t), paramName(sig, slot), fn.Name(), desc)
		}
	}
}

// callee resolves a call to the summary that describes it — the live
// summary of an in-package function, or the imported fact of an
// out-of-package one — with the arguments aligned to its parameter slots
// (receiver first). sum is nil for dynamic calls, callees nothing is known
// about, and callees audited with //ciovet:sanitized.
func (sc *htScope) callee(call *ast.CallExpr) (fn *types.Func, sum *TaintFact, args []ast.Expr) {
	fn, args = resolveCallee(sc.info(), call)
	if fn == nil {
		return nil, nil, nil
	}
	if hf := sc.st.fns[fn]; hf != nil {
		sum = sc.st.sums[hf]
	} else {
		sum = sc.st.pass.ImportedTaint(fn)
	}
	if sum != nil && sum.Sanitized {
		sum = nil
	}
	return fn, sum, args
}

// paramName names parameter slot i (receiver = slot 0) of sig, for
// diagnostics.
func paramName(sig *types.Signature, i int) string {
	j := i
	if sig.Recv() != nil {
		if j == 0 {
			if n := sig.Recv().Name(); n != "" && n != "_" {
				return n
			}
			return fmt.Sprintf("#%d", i)
		}
		j--
	}
	if j >= 0 && j < sig.Params().Len() {
		if n := sig.Params().At(j).Name(); n != "" && n != "_" {
			return n
		}
	}
	return fmt.Sprintf("#%d", i)
}

func isUnsafeTarget(t types.Type) bool {
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind() == types.UnsafePointer || b.Kind() == types.Uintptr
	}
	return false
}

// eval computes the abstract taint of one expression at pos.
func (sc *htScope) eval(e ast.Expr, pos token.Pos) tval {
	switch x := e.(type) {
	case nil:
		return tval{}
	case *ast.Ident:
		return sc.lookup(sc.obj(x), pos)
	case *ast.ParenExpr:
		return sc.eval(x.X, pos)
	case *ast.UnaryExpr:
		return sc.eval(x.X, pos)
	case *ast.StarExpr:
		return sc.eval(x.X, pos)
	case *ast.TypeAssertExpr:
		return sc.eval(x.X, pos)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.AND, token.REM, token.AND_NOT, token.SHR:
			return tval{} // masked / reduced: bounded by construction
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ,
			token.LAND, token.LOR:
			return tval{} // booleans carry no index taint
		}
		return unionT(sc.eval(x.X, pos), sc.eval(x.Y, pos))
	case *ast.SelectorExpr:
		if hostSource(sc.info(), x) {
			if id, ok := x.X.(*ast.Ident); ok {
				if o := sc.obj(id); o != nil && sc.isValidated(vkey{o, x.Sel.Name}, pos) {
					return tval{}
				}
			}
			return tval{host: true}
		}
		if sel, ok := sc.info().Selections[x]; ok && sel.Kind() == types.FieldVal {
			if id, ok := x.X.(*ast.Ident); ok {
				if o := sc.obj(id); o != nil && sc.isValidated(vkey{o, x.Sel.Name}, pos) {
					return tval{}
				}
			}
			return sc.eval(x.X, pos)
		}
		return tval{}
	case *ast.IndexExpr:
		return sc.eval(x.X, pos) // element of a tainted container
	case *ast.SliceExpr:
		return sc.eval(x.X, pos)
	case *ast.CompositeLit:
		out := tval{}
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = unionT(out, sc.eval(el, pos))
		}
		return out
	case *ast.CallExpr:
		return sc.evalCall(x, pos)[0]
	}
	return tval{}
}

// evalMulti evaluates an expression expected to produce n values (a
// multi-result call on the RHS of a tuple assignment or return).
func (sc *htScope) evalMulti(e ast.Expr, pos token.Pos, n int) []tval {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		ts := sc.evalCall(call, pos)
		for len(ts) < n {
			ts = append(ts, ts[0]) // structural source / unknown: uniform
		}
		return ts[:n]
	}
	out := make([]tval, n)
	t := sc.eval(e, pos)
	for i := range out {
		out[i] = t
	}
	return out
}

// evalCall returns one tval per result of the call (at least one entry).
func (sc *htScope) evalCall(call *ast.CallExpr, pos token.Pos) []tval {
	info := sc.info()
	one := func(t tval) []tval { return []tval{t} }

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return one(sc.eval(call.Args[0], pos)) // conversion propagates
	}
	// Structural sources: direct fetches from host-writable memory.
	if _, m, ok := sharedRead(info, call); ok {
		if m == "ReadAt" {
			return one(tval{}) // fills a caller buffer, no results
		}
		return one(tval{host: true})
	}
	switch calleeName(call) {
	case "len", "cap", "copy":
		return one(tval{}) // guest-sized quantities
	case "append":
		out := tval{}
		for _, a := range call.Args {
			out = unionT(out, sc.eval(a, pos))
		}
		return one(out)
	case "min", "minU32", "max":
		out := tval{}
		for _, a := range call.Args {
			t := sc.eval(a, pos)
			if !t.host && t.params == 0 {
				return one(tval{}) // capped by a trusted bound
			}
			out = unionT(out, t)
		}
		return one(out)
	}
	fn, sum, args := sc.callee(call)
	if sum == nil || len(sum.RetTainted) == 0 {
		return one(tval{})
	}
	out := make([]tval, len(sum.RetTainted))
	for r := range out {
		if sum.RetTainted[r] {
			out[r] = tval{host: true, via: fn.Name()}
		}
		for i, arg := range args {
			if sum.RetFrom[r]&paramBit(i) == 0 {
				continue
			}
			at := sc.eval(arg, pos)
			if at.host {
				out[r].host = true
				if out[r].via == "" {
					out[r].via = fn.Name()
				}
			}
			out[r].params |= at.params
		}
	}
	return out
}
