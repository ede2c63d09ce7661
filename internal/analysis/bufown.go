package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// BufOwnAnalyzer is the flow-sensitive buffer ownership/lifetime rule.
//
// Every memorable runtime bug in this repo's history has been a
// buffer-lifecycle bug (the RxFrame double-release race, the TX slab
// leak, the bounce alias-after-free), matching the audit literature's
// finding that use-after-free and double-free of shared DMA buffers
// dominate real paravirtual driver CVEs. The existing rules are value
// taint and atomicity checks with no notion of a linear resource; this
// one tracks values of registered resource types through each
// function's control-flow graph (cfg.go) and reports:
//
//   - use-after-release: any read of a value on a path where it was
//     already released;
//   - double-release: releasing twice on one path, including a release
//     in a loop body of a value acquired outside the loop, and an
//     explicit release of a value whose release is already deferred;
//   - leak: a path to a return (or the function end) on which an
//     acquired value is neither released, returned, stored, sent, nor
//     covered by a deferred release;
//   - escaping loan: an owned value stored into a field reachable from
//     a parameter, a package-level variable, or a channel, or captured
//     by a goroutine, without a //ciovet:transfers annotation on the
//     escaping line vouching that ownership moves with it.
//
// Tracked resources are matched structurally — safering.RxFrame (release
// Release), shmem arena handles (release HandleFree/Free, including a
// handle buried in a FreeMsg{H: h} literal argument), compartment
// buffers (release Free) — plus any package-local type carrying a
//
//	//ciovet:owned acquire=A,B release=R,S
//
// marker on its declaration. Interprocedural precision rides on the
// same call-graph summaries as hosttaint: each in-package callee is
// summarized (to a fixpoint) as consuming, borrowing, or transferring
// ownership of each parameter slot and as returning ownership per
// result. Statically resolved out-of-package callees consult the fact
// layer (OwnFacts exported by dependencies under the module driver), so
// a helper in another package that frees its argument still kills the
// caller's value; callees with no fact borrow, which is the
// conservative-clean default shared by the rest of the suite.
var BufOwnAnalyzer = &Analyzer{
	Name: "bufown",
	Doc: "track ownership of lease/release buffers (ring frames, arena slabs, compartment buffers, " +
		"//ciovet:owned types) through the CFG; report use-after-release, double-release, " +
		"leaks on early returns, and un-annotated ownership escapes",
	Run: runBufOwn,
}

// Ownership states of one tracked variable on one path. The bits are
// unioned at control-flow joins, so a set bit means "on some path".
const (
	oOwned    uint8 = 1 << iota // holds a live value this function must settle
	oReleased                   // released; further uses are use-after-release
	oMoved                      // ownership handed off (returned/stored/sent)
	oDeferred                   // a deferred call releases the current value at exit
)

// varState is the per-variable dataflow fact. Resource variables carry
// spec; error variables produced alongside an acquire carry peer (the
// resource they guard) so `if err != nil` edges can cancel the
// obligation on the failure path.
type varState struct {
	bits uint8
	spec *ownSpec
	peer types.Object
}

// ownSpec describes one tracked resource type.
type ownSpec struct {
	label      string // e.g. "safering.RxFrame", for diagnostics
	match      func(types.Type) bool
	acquire    map[string]bool // callee names whose matching result is fresh-owned
	acquireAll bool            // marker with no acquire=: any call returning the type
	release    map[string]bool // receiver-method or by-argument callee names that release
}

// ownSummary is one function's interprocedural ownership contract.
type ownSummary struct {
	consumes  paramBits // param released on some path (caller's value is dead after)
	transfers paramBits // param stored away; ownership moves with the call
	retOwned  []bool    // result i is a fresh owned value the caller must settle
}

// ownState is the package-wide analysis state shared by both phases.
type ownState struct {
	summaries
	specs     []*ownSpec
	sums      map[*htFunc]*ownSummary
	transfers markerLines
	errType   types.Type
}

func runBufOwn(pass *Pass) error {
	st := &ownState{
		summaries: newSummaries(pass),
		specs:     append(builtinOwnSpecs(), markerOwnSpecs(pass)...),
		sums:      make(map[*htFunc]*ownSummary),
		transfers: buildMarkerLines(pass.Fset, pass.Files, "//ciovet:transfers"),
		errType:   types.Universe.Lookup("error").Type(),
	}
	for _, hf := range st.ordered {
		st.sums[hf] = &ownSummary{retOwned: make([]bool, hf.numResults())}
	}
	st.solve(st.analyzeFunc)

	// Export the non-trivial final summaries as facts for dependents.
	for _, hf := range st.ordered {
		pass.ExportOwn(hf.obj, ownFactOf(st.sums[hf]))
	}
	return nil
}

// ownFactOf converts a final ownership summary into its exportable
// fact, or nil when the function neither consumes, transfers, nor
// returns ownership.
func ownFactOf(sum *ownSummary) *OwnFact {
	interesting := sum.consumes != 0 || sum.transfers != 0
	for _, b := range sum.retOwned {
		interesting = interesting || b
	}
	if !interesting {
		return nil
	}
	return &OwnFact{
		Consumes:  uint64(sum.consumes),
		Transfers: uint64(sum.transfers),
		RetOwned:  append([]bool(nil), sum.retOwned...),
	}
}

// importedOwnSummary synthesizes a local-shaped summary from the fact a
// dependency exported for this call's callee, with arguments aligned to
// its parameter slots (receiver first). Nil when the callee is dynamic
// or has no fact.
func (sc *ownScope) importedOwnSummary(call *ast.CallExpr) (*ownSummary, []ast.Expr) {
	fn, args := resolveCallee(sc.st.pass.TypesInfo, call)
	f := sc.st.pass.ImportedOwn(fn)
	if f == nil {
		return nil, nil
	}
	return &ownSummary{
		consumes:  paramBits(f.Consumes),
		transfers: paramBits(f.Transfers),
		retOwned:  f.RetOwned,
	}, args
}

// builtinOwnSpecs registers the module's structural lease/release types.
// Matching is by package suffix + type name so the rules apply to the
// real module and to the corpus stubs alike.
func builtinOwnSpecs() []*ownSpec {
	return []*ownSpec{
		{
			label:   "safering.RxFrame",
			match:   func(t types.Type) bool { return typeIs(t, "safering", "RxFrame") },
			acquire: map[string]bool{"Recv": true},
			release: map[string]bool{"Release": true},
		},
		{
			label:   "shmem.Handle",
			match:   func(t types.Type) bool { return typeIs(t, "shmem", "Handle") },
			acquire: map[string]bool{"Alloc": true},
			release: map[string]bool{"HandleFree": true, "Free": true},
		},
		{
			label:   "compartment.Buffer",
			match:   func(t types.Type) bool { return typeIs(t, "compartment", "Buffer") },
			acquire: map[string]bool{"Alloc": true, "AllocTx": true},
			release: map[string]bool{"Free": true},
		},
	}
}

// markerOwnSpecs collects package-local //ciovet:owned markers:
//
//	//ciovet:owned acquire=leaseSlab release=Free
//	type slabLease struct { ... }
//
// release= is mandatory (a linear type without a release set is
// uncheckable); acquire= is optional — when omitted, every call
// returning the type counts as a constructor. Markers are package-local
// by construction: other packages' comments are not loaded, which is
// why the cross-package resources above are matched structurally.
func markerOwnSpecs(pass *Pass) []*ownSpec {
	var specs []*ownSpec
	const prefix = "//ciovet:owned"
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok {
					continue
				}
				text, pos := markerText(gd.Doc, prefix)
				if text == "" {
					text, pos = markerText(ts.Doc, prefix)
				}
				if text == "" && ts.Comment != nil {
					text, pos = markerText(ts.Comment, prefix)
				}
				if pos == token.NoPos {
					continue
				}
				obj := pass.TypesInfo.Defs[ts.Name]
				if obj == nil {
					continue
				}
				sp := &ownSpec{
					label:   pass.Pkg.Name() + "." + ts.Name.Name,
					acquire: make(map[string]bool),
					release: make(map[string]bool),
				}
				tn := obj // capture for the closure
				sp.match = func(t types.Type) bool {
					n := namedType(t)
					return n != nil && n.Obj() == tn
				}
				for _, f := range strings.Fields(text) {
					k, v, ok := strings.Cut(f, "=")
					if !ok {
						continue
					}
					for _, name := range strings.Split(v, ",") {
						if name == "" {
							continue
						}
						switch k {
						case "acquire":
							sp.acquire[name] = true
						case "release":
							sp.release[name] = true
						}
					}
				}
				if len(sp.release) == 0 {
					pass.Reportf(ts.Pos(), "ciovet:owned marker on %s needs release=Name[,Name...]: "+
						"a linear resource without a declared release set cannot be checked", ts.Name.Name)
					continue
				}
				sp.acquireAll = len(sp.acquire) == 0
				specs = append(specs, sp)
			}
		}
	}
	return specs
}

// markerText returns the trailing text of the first comment in g with
// the given prefix, and its position.
func markerText(g *ast.CommentGroup, prefix string) (string, token.Pos) {
	if g == nil {
		return "", token.NoPos
	}
	for _, c := range g.List {
		if strings.HasPrefix(c.Text, prefix) {
			return strings.TrimSpace(strings.TrimPrefix(c.Text, prefix)), c.Pos()
		}
	}
	return "", token.NoPos
}

// specFor returns the registered resource spec matching t, or nil.
func (st *ownState) specFor(t types.Type) *ownSpec {
	if t == nil {
		return nil
	}
	for _, sp := range st.specs {
		if sp.match(t) {
			return sp
		}
	}
	return nil
}

// ownScope is the per-function analysis context.
type ownScope struct {
	st     *ownState
	fn     *htFunc
	sum    *ownSummary
	state  map[types.Object]varState
	report bool
}

func (st *ownState) analyzeFunc(hf *htFunc) {
	sc := &ownScope{st: st, fn: hf, sum: st.sums[hf]}
	sc.run()
}

func (sc *ownScope) run() {
	g := sc.fn.cfg()
	f := flow[types.Object, varState]{transfer: sc.transfer, join: joinOwnState, refine: sc.refine}
	if exit := f.run(g, map[types.Object]varState{}, sc.st.report); exit != nil {
		sc.state = exit
		sc.leakCheck(g.end)
	}
}

// joinOwnState unions src into dst (bit-union; error-peer pairings that
// disagree are dropped), reporting whether dst changed.
func joinOwnState(dst, src map[types.Object]varState) bool {
	changed := false
	for k, sv := range src {
		dv, ok := dst[k]
		if !ok {
			dst[k] = sv
			changed = true
			continue
		}
		nb := dv.bits | sv.bits
		peer := dv.peer
		if dv.peer != sv.peer {
			peer = nil
		}
		spec := dv.spec
		if spec == nil {
			spec = sv.spec
		}
		if nb != dv.bits || peer != dv.peer || spec != dv.spec {
			dst[k] = varState{bits: nb, spec: spec, peer: peer}
			changed = true
		}
	}
	return changed
}

// refine narrows state along a branch edge. It understands nil checks on
// tracked values and on the error variable paired with an acquire: on
// the `err != nil` edge the acquire failed, so the paired resource
// carries no obligation.
func (sc *ownScope) refine(state map[types.Object]varState, cond ast.Expr, when bool) {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		sc.refine(state, c.X, when)
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			sc.refine(state, c.X, !when)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if when {
				sc.refine(state, c.X, true)
				sc.refine(state, c.Y, true)
			}
		case token.LOR:
			if !when {
				sc.refine(state, c.X, false)
				sc.refine(state, c.Y, false)
			}
		case token.EQL, token.NEQ:
			var other ast.Expr
			switch {
			case sc.isNil(c.X):
				other = c.Y
			case sc.isNil(c.Y):
				other = c.X
			default:
				return
			}
			o := sc.identObj(other)
			if o == nil {
				return
			}
			// isNilEdge: does "other == nil" hold on this edge?
			isNilEdge := (c.Op == token.EQL) == when
			v, ok := state[o]
			if !ok {
				return
			}
			if v.spec != nil && isNilEdge {
				// The tracked value is nil here: nothing is owned.
				delete(state, o)
			}
			if v.spec == nil && v.peer != nil && !isNilEdge {
				// err != nil: the acquire failed, the peer owes nothing.
				delete(state, v.peer)
				delete(state, o)
			}
		}
	}
}

func (sc *ownScope) isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil" && sc.st.pass.TypesInfo.Uses[id] == types.Universe.Lookup("nil")
}

// transfer interprets one block's nodes against state, recording summary
// facts always and emitting diagnostics only in the report phase.
func (sc *ownScope) transfer(b *cfgBlock, state map[types.Object]varState, report bool) map[types.Object]varState {
	sc.state = state
	sc.report = report
	for _, n := range b.nodes {
		switch x := n.(type) {
		case *ast.AssignStmt:
			sc.assign(x)
		case *ast.DeclStmt:
			sc.declStmt(x)
		case *ast.ExprStmt:
			sc.uses(x.X)
		case *ast.SendStmt:
			sc.send(x)
		case *ast.IncDecStmt:
			sc.uses(x.X)
		case *ast.DeferStmt:
			sc.deferStmt(x)
		case *ast.GoStmt:
			sc.goStmt(x)
		case *ast.ReturnStmt:
			sc.returnStmt(x)
		case *ast.RangeStmt:
			sc.rangeHead(x)
		case ast.Stmt:
			// Remaining statements (Empty, Labeled leftovers) carry no
			// ownership effect.
		case ast.Expr:
			// Branch conditions, switch tags, case expressions.
			sc.uses(x)
		}
	}
	return state
}

// emit reports only when this transfer pass is the reporting one: phase
// one and the phase-two fixpoint prologue are summary-only.
func (sc *ownScope) emit(pos token.Pos, format string, args ...any) {
	if sc.report {
		sc.st.pass.Reportf(pos, format, args...)
	}
}

func (sc *ownScope) identObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := sc.st.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return sc.st.pass.TypesInfo.Defs[id]
}

// --- state transitions -------------------------------------------------

// releaseVar settles o's obligation. Releasing an already-released or
// already-deferred value is a double-release. Releasing a parameter
// records the consume in the function's summary.
func (sc *ownScope) releaseVar(o types.Object, pos token.Pos, via string) {
	spec := sc.st.specFor(o.Type())
	if spec == nil {
		return
	}
	v, ok := sc.state[o]
	if ok {
		switch {
		case v.bits&oDeferred != 0:
			sc.emit(pos, "double release of %s (%s): its release is already deferred%s", o.Name(), spec.label, viaNote(via))
		case v.bits&oReleased != 0:
			sc.emit(pos, "double release of %s (%s): already released on this path%s", o.Name(), spec.label, viaNote(via))
		}
		v.bits = (v.bits &^ oOwned) | oReleased
		v.spec = spec
		sc.state[o] = v
	} else {
		sc.state[o] = varState{bits: oReleased, spec: spec}
	}
	sc.markConsumes(o)
}

// deferRelease records a deferred release of o: the current value is
// settled on every path from here. A second deferred (or prior) release
// of the same value is a double-release.
func (sc *ownScope) deferRelease(o types.Object, pos token.Pos) {
	spec := sc.st.specFor(o.Type())
	if spec == nil {
		return
	}
	v, ok := sc.state[o]
	if ok {
		switch {
		case v.bits&oDeferred != 0:
			sc.emit(pos, "double release of %s (%s): a deferred release is already pending (deferring in a loop releases once per iteration)", o.Name(), spec.label)
		case v.bits&oReleased != 0:
			sc.emit(pos, "deferred release of %s (%s): already released on this path", o.Name(), spec.label)
		}
		v.bits |= oDeferred
		v.spec = spec
		sc.state[o] = v
	} else {
		sc.state[o] = varState{bits: oDeferred, spec: spec}
	}
	sc.markConsumes(o)
}

// moveVar hands o's ownership elsewhere (return, store, send, summary
// transfer). Moving a parameter records the transfer in the summary.
func (sc *ownScope) moveVar(o types.Object) {
	spec := sc.st.specFor(o.Type())
	if spec == nil {
		return
	}
	v := sc.state[o]
	v.bits = (v.bits &^ oOwned) | oMoved
	v.spec = spec
	sc.state[o] = v
	if i := sc.fn.paramIndex(o); i >= 0 {
		if bit := paramBit(i); sc.sum.transfers&bit == 0 {
			sc.sum.transfers |= bit
			sc.st.changed = true
		}
	}
}

func (sc *ownScope) markConsumes(o types.Object) {
	if i := sc.fn.paramIndex(o); i >= 0 {
		if bit := paramBit(i); sc.sum.consumes&bit == 0 {
			sc.sum.consumes |= bit
			sc.st.changed = true
		}
	}
}

// useIdent checks one read of a tracked variable.
func (sc *ownScope) useIdent(id *ast.Ident) {
	o := sc.identObj(id)
	if o == nil {
		return
	}
	v, ok := sc.state[o]
	if !ok || v.spec == nil {
		return
	}
	if v.bits&oReleased != 0 {
		sc.emit(id.Pos(), "use of %s (%s) after it was released on this path", o.Name(), v.spec.label)
	}
}

func viaNote(via string) string {
	if via == "" {
		return ""
	}
	return " (released via " + via + ")"
}

// leakCheck reports every variable still owned (and not covered by a
// deferred release) at a return or at the function end.
func (sc *ownScope) leakCheck(pos token.Pos) {
	var leaked []types.Object
	for o, v := range sc.state {
		if v.spec != nil && v.bits&oOwned != 0 && v.bits&oDeferred == 0 {
			leaked = append(leaked, o)
		}
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i].Pos() < leaked[j].Pos() })
	for _, o := range leaked {
		sc.emit(pos, "%s (%s) leaks on this path: acquired but not released, returned, or transferred",
			o.Name(), sc.state[o].spec.label)
	}
}

// --- expression walking ------------------------------------------------

// uses walks e for ownership effects: calls are classified (release /
// summary / borrow), reads of released values are reported, closure
// bodies are skipped (captures are borrows; closures are not analysis
// subjects, matching hosttaint).
func (sc *ownScope) uses(e ast.Expr) {
	sc.usesSkip(e, nil)
}

func (sc *ownScope) usesSkip(e ast.Expr, skip map[*ast.Ident]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			sc.call(x)
			return false
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if skip == nil || !skip[x] {
				sc.useIdent(x)
			}
		}
		return true
	})
}

// call classifies one call's effect on each operand: a named release
// (by receiver or by argument, including a handle inside a composite
// literal like FreeMsg{H: h}), a summarized consume/transfer, or a
// plain borrowing use.
func (sc *ownScope) call(call *ast.CallExpr) {
	info := sc.st.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion (e.g. uint64(h)): a read, not a move — descriptor
		// fields carry the numeric ref while ownership stays put.
		for _, a := range call.Args {
			sc.uses(a)
		}
		return
	}
	name := calleeName(call)
	hf, aligned := resolveCall(info, sc.st.fns, call)
	var sum *ownSummary
	resolved := hf != nil
	if hf != nil {
		sum = sc.st.sums[hf]
	} else if is, iargs := sc.importedOwnSummary(call); is != nil {
		// Out-of-package callee with an exported fact: treat it exactly
		// like a summarized local callee.
		sum, aligned, resolved = is, iargs, true
	}

	// Align operands to callee slots: for a resolved method call the
	// receiver is slot 0; otherwise slots are positional (or unknown).
	ops := call.Args
	slot0 := 0
	if resolved && len(aligned) == len(call.Args)+1 {
		ops = aligned
	} else if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// Unresolved (or package-qualified) method/function: process the
		// receiver chain for by-name releases and uses.
		sc.operand(sel.X, name, -1, nil)
	}
	for i, a := range ops {
		slot := slot0 + i
		if !resolved {
			slot = -1
		}
		sc.operand(a, name, slot, sum)
	}
}

// operand applies one call operand's effect.
func (sc *ownScope) operand(a ast.Expr, callee string, slot int, sum *ownSummary) {
	if o := sc.identObj(a); o != nil {
		spec := sc.st.specFor(o.Type())
		if spec == nil {
			sc.useIdent(a.(*ast.Ident))
			return
		}
		switch {
		case spec.release[callee]:
			sc.releaseVar(o, a.Pos(), "")
		case sum != nil && slot >= 0 && sum.consumes&paramBit(slot) != 0:
			sc.releaseVar(o, a.Pos(), callee)
		case sum != nil && slot >= 0 && sum.transfers&paramBit(slot) != 0:
			sc.moveVar(o)
		default:
			sc.useIdent(a.(*ast.Ident))
		}
		return
	}
	// Composite operands: a handle inside FreeMsg{H: h} handed to a
	// releasing callee releases h.
	handled := make(map[*ast.Ident]bool)
	for _, id := range sc.trackedIdentsIn(a) {
		o := sc.identObj(id)
		if o == nil {
			continue
		}
		if spec := sc.st.specFor(o.Type()); spec != nil && spec.release[callee] {
			sc.releaseVar(o, id.Pos(), "")
			handled[id] = true
		}
	}
	sc.usesSkip(a, handled)
}

// trackedIdentsIn collects tracked-type identifiers appearing directly
// in e's value structure: plain idents, composite-literal elements
// (including keyed fields), address-of, parens. It does not descend
// into calls or conversions — those erase or consume the value
// themselves.
func (sc *ownScope) trackedIdentsIn(e ast.Expr) []*ast.Ident {
	var out []*ast.Ident
	var walk func(ast.Expr)
	walk = func(x ast.Expr) {
		switch v := x.(type) {
		case *ast.Ident:
			if o := sc.identObj(v); o != nil && sc.st.specFor(o.Type()) != nil {
				out = append(out, v)
			}
		case *ast.ParenExpr:
			walk(v.X)
		case *ast.UnaryExpr:
			walk(v.X)
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					walk(kv.Value)
				} else {
					walk(el)
				}
			}
		}
	}
	walk(e)
	return out
}

// callResults classifies each result of call as fresh-owned (spec) or
// not (nil): by acquire name, by //ciovet:owned acquireAll, or by the
// callee's returnsOwned summary.
func (sc *ownScope) callResults(call *ast.CallExpr) []*ownSpec {
	info := sc.st.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return nil
	}
	var rts []types.Type
	if tup, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			rts = append(rts, tup.At(i).Type())
		}
	} else {
		rts = append(rts, tv.Type)
	}
	name := calleeName(call)
	hf, _ := resolveCall(info, sc.st.fns, call)
	var sum *ownSummary
	if hf != nil {
		sum = sc.st.sums[hf]
	} else if is, _ := sc.importedOwnSummary(call); is != nil {
		sum = is
	}
	specs := make([]*ownSpec, len(rts))
	any := false
	for i, rt := range rts {
		sp := sc.st.specFor(rt)
		if sp == nil {
			continue
		}
		switch {
		case sp.acquire[name], sp.acquireAll:
			specs[i] = sp
			any = true
		case sum != nil && i < len(sum.retOwned) && sum.retOwned[i]:
			specs[i] = sp
			any = true
		}
	}
	if !any {
		return nil
	}
	return specs
}

// --- statement handlers ------------------------------------------------

func (sc *ownScope) assign(x *ast.AssignStmt) {
	if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
		// Compound assignment (+= etc): reads only.
		for _, e := range x.Rhs {
			sc.uses(e)
		}
		for _, e := range x.Lhs {
			sc.uses(e)
		}
		return
	}
	sc.assignTargets(x.Lhs, x.Rhs)
}

func (sc *ownScope) declStmt(d *ast.DeclStmt) {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, s := range gd.Specs {
		vs, ok := s.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		lhs := make([]ast.Expr, len(vs.Names))
		for i, n := range vs.Names {
			lhs[i] = n
		}
		sc.assignTargets(lhs, vs.Values)
	}
}

// assignTargets is the shared core of = / := / var bindings.
func (sc *ownScope) assignTargets(lhs, rhs []ast.Expr) {
	if len(lhs) > 1 && len(rhs) == 1 {
		// Tuple form: r0, r1 := call(). Bind per result slot and pair an
		// error result with the acquired resource for edge refinement.
		call, ok := rhs[0].(*ast.CallExpr)
		if !ok {
			sc.uses(rhs[0])
			for _, l := range lhs {
				sc.bindTarget(l, nil, nil)
			}
			return
		}
		sc.call(call)
		specs := sc.callResults(call)
		var ownObj types.Object
		ownCount := 0
		for i, l := range lhs {
			var sp *ownSpec
			if i < len(specs) {
				sp = specs[i]
			}
			sc.bindTarget(l, sp, nil)
			if sp != nil {
				if o := sc.identObj(l); o != nil {
					ownObj = o
					ownCount++
				}
			}
		}
		if ownCount == 1 && ownObj != nil {
			for _, l := range lhs {
				if o := sc.identObj(l); o != nil && o != ownObj && types.Identical(o.Type(), sc.st.errType) {
					sc.state[o] = varState{peer: ownObj}
				}
			}
		}
		return
	}
	for i := range lhs {
		if i < len(rhs) {
			sc.assignOne(lhs[i], rhs[i])
		}
	}
}

// assignOne handles a single lhs = rhs pair: classify the right side's
// ownership (fresh acquire, alias move of an owned local, tracked
// composite construction, or none) and bind the target.
func (sc *ownScope) assignOne(l, r ast.Expr) {
	// dst = append(src, h, ...): owned values land in the destination
	// container — the tree's dominant escape idiom (txHandles staging).
	if call, ok := r.(*ast.CallExpr); ok && sc.appendStore(l, call) {
		return
	}
	// Alias of a tracked variable: ownership follows the copy.
	if o := sc.identObj(r); o != nil && sc.st.specFor(o.Type()) != nil {
		v, ok := sc.state[o]
		if ok && v.bits&oOwned != 0 {
			sc.bindTarget(l, v.spec, o)
			return
		}
		if !ok && sc.fn.paramIndex(o) >= 0 {
			// Caller-owned parameter stored outside this frame: the store
			// re-homes the caller's resource, so the escape discipline
			// applies and the summary records the transfer — call sites
			// then treat the argument as moved. A plain local alias stays
			// a borrow.
			_, isID := l.(*ast.Ident)
			lo := sc.identObj(l)
			if !isID || (lo != nil && lo.Parent() == sc.st.pass.Pkg.Scope()) {
				sc.bindTarget(l, nil, o)
				return
			}
		}
		// Borrowed/released alias: a read, and the target is untracked.
		if id, isID := r.(*ast.Ident); isID {
			sc.useIdent(id)
		}
		sc.bindTarget(l, nil, nil)
		return
	}
	if call, ok := r.(*ast.CallExpr); ok {
		sc.call(call)
		specs := sc.callResults(call)
		var sp *ownSpec
		if len(specs) == 1 {
			sp = specs[0]
		}
		sc.bindTarget(l, sp, nil)
		return
	}
	// Constructing a tracked value: inner owned idents move into it.
	if sp, inner := sc.trackedComposite(r); sp != nil {
		for _, id := range inner {
			if o := sc.identObj(id); o != nil {
				if v, ok := sc.state[o]; ok && v.bits&oOwned != 0 {
					sc.moveVar(o)
				}
			}
		}
		sc.bindTarget(l, sp, nil)
		return
	}
	sc.uses(r)
	sc.bindTarget(l, nil, nil)
}

// appendStore handles `dst = append(container, vals...)` when vals
// include owned tracked values: they move into the container, which is
// an escape (unless //ciovet:transfers) when the container is reachable
// from a caller or package-level, and a silent move when it is local.
// Returns false when no owned value is appended (generic handling
// proceeds).
func (sc *ownScope) appendStore(l ast.Expr, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, isB := sc.st.pass.TypesInfo.Uses[id].(*types.Builtin); !isB || b.Name() != "append" {
		return false
	}
	if len(call.Args) < 2 {
		return false
	}
	var owned []types.Object
	handled := make(map[*ast.Ident]bool)
	for _, a := range call.Args[1:] {
		for _, tid := range sc.trackedIdentsIn(a) {
			o := sc.identObj(tid)
			if o == nil {
				continue
			}
			if v, ok := sc.state[o]; ok && v.bits&oOwned != 0 {
				owned = append(owned, o)
				handled[tid] = true
			}
		}
	}
	if len(owned) == 0 {
		return false
	}
	kind := ""
	if _, isIdent := l.(*ast.Ident); !isIdent {
		kind = sc.storeRoot(l)
	}
	for _, o := range owned {
		if kind != "" && !sc.st.transfers.covers(sc.st.pass.Fset, l.Pos()) {
			sc.emit(l.Pos(), "owned %s (%s) escapes into %s without //ciovet:transfers: "+
				"annotate the store if ownership moves with it",
				o.Name(), sc.st.specFor(o.Type()).labelOr(), kind)
		}
		sc.moveVar(o)
	}
	sc.uses(call.Args[0])
	for _, a := range call.Args[1:] {
		sc.usesSkip(a, handled)
	}
	sc.bindTarget(l, nil, nil)
	return true
}

// trackedComposite reports whether e is a composite literal (possibly
// behind &) of a tracked resource type, plus the tracked idents inside.
func (sc *ownScope) trackedComposite(e ast.Expr) (*ownSpec, []*ast.Ident) {
	x := e
	if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
		x = u.X
	}
	cl, ok := x.(*ast.CompositeLit)
	if !ok {
		return nil, nil
	}
	tv, ok := sc.st.pass.TypesInfo.Types[cl]
	if !ok {
		return nil, nil
	}
	sp := sc.st.specFor(tv.Type)
	if sp == nil {
		return nil, nil
	}
	return sp, sc.trackedIdentsIn(cl)
}

// bindTarget binds one assignment target. sp non-nil means the bound
// value is fresh-owned; aliasFrom non-nil means ownership moves from
// that variable. Binding over a still-owned value is a leak; storing an
// owned value through a field/global/index target is an escape unless
// the line carries //ciovet:transfers.
func (sc *ownScope) bindTarget(l ast.Expr, sp *ownSpec, aliasFrom types.Object) {
	if id, ok := l.(*ast.Ident); ok {
		if id.Name == "_" {
			// Discarded: acquire results bound to blank are untracked by
			// policy (the dominant shape is discarding a failed call's
			// frame, which is nil).
			return
		}
		o := sc.identObj(id)
		if o == nil {
			return
		}
		if o.Parent() == sc.st.pass.Pkg.Scope() {
			// Package-level target: the value outlives this function, so
			// binding an owned value here is an escape, not a local bind.
			if (sp != nil || aliasFrom != nil) &&
				!sc.st.transfers.covers(sc.st.pass.Fset, l.Pos()) {
				name := "an owned value"
				if aliasFrom != nil {
					name = aliasFrom.Name()
				}
				label := sp
				if label == nil && aliasFrom != nil {
					label = sc.st.specFor(aliasFrom.Type())
				}
				sc.emit(l.Pos(), "owned %s (%s) escapes into package-level variable %s without //ciovet:transfers: "+
					"annotate the store if ownership moves with it", name, label.labelOr(), o.Name())
			}
			if aliasFrom != nil {
				sc.moveVar(aliasFrom)
			}
			return
		}
		if v, had := sc.state[o]; had && v.spec != nil && o != aliasFrom &&
			v.bits&oOwned != 0 && v.bits&oDeferred == 0 {
			sc.emit(id.Pos(), "%s (%s) is overwritten before release: the previous value leaks", o.Name(), v.spec.label)
		}
		if aliasFrom != nil {
			sc.moveVar(aliasFrom)
		}
		if sp != nil {
			sc.state[o] = varState{bits: oOwned, spec: sp}
		} else {
			delete(sc.state, o)
		}
		return
	}
	// Field/index/deref target.
	sc.uses(l)
	if aliasFrom == nil && sp == nil {
		return
	}
	if kind := sc.storeRoot(l); kind != "" {
		if !sc.st.transfers.covers(sc.st.pass.Fset, l.Pos()) {
			label := sp
			if label == nil && aliasFrom != nil {
				label = sc.st.specFor(aliasFrom.Type())
			}
			name := "an owned value"
			if aliasFrom != nil {
				name = aliasFrom.Name()
			}
			lbl := ""
			if label != nil {
				lbl = " (" + label.label + ")"
			}
			sc.emit(l.Pos(), "owned %s%s escapes into %s without //ciovet:transfers: "+
				"annotate the store if ownership moves with it", name, lbl, kind)
		}
	}
	if aliasFrom != nil {
		sc.moveVar(aliasFrom)
	}
}

// storeRoot classifies a non-ident store target by the root of its
// selector/index chain: a package-level variable or anything reachable
// from a parameter/receiver escapes this function's control; a local
// aggregate does not (conservative: locals that later escape are the
// documented miss).
func (sc *ownScope) storeRoot(l ast.Expr) string {
	e := l
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.Ident:
			o := sc.identObj(v)
			if o == nil {
				return ""
			}
			if sc.fn.paramIndex(o) >= 0 {
				return "a structure reachable from the caller (via " + o.Name() + ")"
			}
			if o.Parent() == sc.st.pass.Pkg.Scope() {
				return "package-level variable " + o.Name()
			}
			return "" // local aggregate: silent move
		default:
			// Unrecognized base (call result deref, ...): conservative escape.
			return "a structure outside this function's control"
		}
	}
}

func (sc *ownScope) send(x *ast.SendStmt) {
	sc.uses(x.Chan)
	handled := make(map[*ast.Ident]bool)
	for _, id := range sc.trackedIdentsIn(x.Value) {
		o := sc.identObj(id)
		if o == nil {
			continue
		}
		v, ok := sc.state[o]
		if !ok || v.bits&oOwned == 0 {
			continue
		}
		if !sc.st.transfers.covers(sc.st.pass.Fset, x.Pos()) {
			sc.emit(x.Pos(), "owned %s (%s) is sent to a channel without //ciovet:transfers: "+
				"the receiver must take over the release obligation explicitly", o.Name(), v.spec.label)
		}
		sc.moveVar(o)
		handled[id] = true
	}
	sc.usesSkip(x.Value, handled)
}

// deferStmt models `defer release(...)` as an end-of-function release on
// every path: direct receiver form (defer f.Release()), by-argument
// form (defer a.HandleFree(FreeMsg{H: h})), and a deferred closure
// whose body releases captured resources.
func (sc *ownScope) deferStmt(x *ast.DeferStmt) {
	call := x.Call
	name := calleeName(call)
	handled := make(map[*ast.Ident]bool)

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if o := sc.identObj(sel.X); o != nil {
			if spec := sc.st.specFor(o.Type()); spec != nil && spec.release[name] {
				sc.deferRelease(o, x.Pos())
				handled[sel.X.(*ast.Ident)] = true
			}
		} else {
			sc.uses(sel.X)
		}
	}
	for _, a := range call.Args {
		for _, id := range sc.trackedIdentsIn(a) {
			o := sc.identObj(id)
			if o == nil {
				continue
			}
			if spec := sc.st.specFor(o.Type()); spec != nil && spec.release[name] {
				sc.deferRelease(o, x.Pos())
				handled[id] = true
			}
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// A deferred closure releasing captured resources counts: the
		// blkring idiom is `defer func() { _ = a.HandleFree(FreeMsg{H: h}) }()`.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			cname := calleeName(c)
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
				if o := sc.identObj(sel.X); o != nil && sc.capturedHere(o, lit) {
					if spec := sc.st.specFor(o.Type()); spec != nil && spec.release[cname] {
						sc.deferRelease(o, x.Pos())
					}
				}
			}
			for _, a := range c.Args {
				for _, id := range sc.trackedIdentsIn(a) {
					o := sc.identObj(id)
					if o == nil || !sc.capturedHere(o, lit) {
						continue
					}
					if spec := sc.st.specFor(o.Type()); spec != nil && spec.release[cname] {
						sc.deferRelease(o, x.Pos())
					}
				}
			}
			return true
		})
		return
	}
	for _, a := range call.Args {
		sc.usesSkip(a, handled)
	}
}

// capturedHere reports whether o is a variable of the enclosing function
// captured by lit (declared outside the literal's extent).
func (sc *ownScope) capturedHere(o types.Object, lit *ast.FuncLit) bool {
	return o.Pos() != token.NoPos && (o.Pos() < lit.Pos() || o.Pos() > lit.End())
}

// goStmt checks escapes into a spawned goroutine: an owned value passed
// as an argument or captured by the goroutine's closure leaves this
// function's sequential control, which demands //ciovet:transfers.
func (sc *ownScope) goStmt(x *ast.GoStmt) {
	call := x.Call
	handled := make(map[*ast.Ident]bool)
	escape := func(o types.Object, how string) {
		v, ok := sc.state[o]
		if !ok || v.bits&oOwned == 0 {
			return
		}
		if !sc.st.transfers.covers(sc.st.pass.Fset, x.Pos()) {
			sc.emit(x.Pos(), "owned %s (%s) is %s a goroutine without //ciovet:transfers", o.Name(), v.spec.label, how)
		}
		sc.moveVar(o)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		seen := make(map[types.Object]bool)
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			o := sc.st.pass.TypesInfo.Uses[id]
			if o == nil || seen[o] || !sc.capturedHere(o, lit) {
				return true
			}
			if sc.st.specFor(o.Type()) != nil {
				seen[o] = true
				escape(o, "captured by")
			}
			return true
		})
	}
	for _, a := range call.Args {
		for _, id := range sc.trackedIdentsIn(a) {
			if o := sc.identObj(id); o != nil {
				escape(o, "passed to")
				handled[id] = true
			}
		}
	}
	for _, a := range call.Args {
		sc.usesSkip(a, handled)
	}
}

// rangeHead models the loop-head effects of `for k, v := range x`: the
// ranged expression is read, and element bindings are borrows — the
// container owns its elements, so a ranged value carries no obligation
// (and release inside the body is release-of-borrowed, recorded but not
// owned-state dependent).
func (sc *ownScope) rangeHead(x *ast.RangeStmt) {
	sc.uses(x.X)
	for _, kv := range []ast.Expr{x.Key, x.Value} {
		if kv == nil {
			continue
		}
		if o := sc.identObj(kv); o != nil {
			delete(sc.state, o)
		}
	}
}

func (sc *ownScope) returnStmt(x *ast.ReturnStmt) {
	for i, res := range x.Results {
		if o := sc.identObj(res); o != nil && sc.st.specFor(o.Type()) != nil {
			v := sc.state[o]
			if v.bits&oReleased != 0 {
				sc.emit(res.Pos(), "%s (%s) is returned after it was released on this path", o.Name(), v.spec.labelOr())
			}
			if v.bits&oOwned != 0 {
				sc.moveVar(o)
				sc.markRetOwned(i)
			}
			continue
		}
		if call, ok := res.(*ast.CallExpr); ok {
			sc.call(call)
			for j, sp := range sc.callResults(call) {
				if sp != nil {
					// A single call expression may expand to the whole
					// result tuple; otherwise slots map positionally.
					if len(x.Results) == 1 {
						sc.markRetOwned(j)
					} else {
						sc.markRetOwned(i)
					}
				}
			}
			continue
		}
		if sp, inner := sc.trackedComposite(res); sp != nil {
			for _, id := range inner {
				if o := sc.identObj(id); o != nil {
					if v, ok := sc.state[o]; ok && v.bits&oOwned != 0 {
						sc.moveVar(o)
					}
				}
			}
			sc.markRetOwned(i)
			continue
		}
		sc.uses(res)
	}
	if len(x.Results) == 0 {
		// Naked return: named results are the returned values.
		for i, ro := range sc.fn.results {
			if ro == nil {
				continue
			}
			if v, ok := sc.state[ro]; ok && v.bits&oOwned != 0 {
				sc.moveVar(ro)
				sc.markRetOwned(i)
			}
		}
	}
	sc.leakCheck(x.Pos())
}

// markRetOwned marks result slot i of this function as returning a
// fresh owned value the caller must settle.
func (sc *ownScope) markRetOwned(i int) {
	if i >= 0 && i < len(sc.sum.retOwned) && !sc.sum.retOwned[i] {
		sc.sum.retOwned[i] = true
		sc.st.changed = true
	}
}

// labelOr prints the resource label defensively (spec may be unset on
// entries created for borrowed variables).
func (sp *ownSpec) labelOr() string {
	if sp == nil {
		return "resource"
	}
	return sp.label
}
