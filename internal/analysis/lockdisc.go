package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscAnalyzer enforces the "not self-locking" concurrency contract
// at the heart of the unified ring engine: safering.Engine documents
// that the owner's mutex serializes every call, safering/blkring wrap
// it behind Endpoint.mu, the gateway layers tenant.mu and Gateway.mu on
// top — and before this rule, nothing checked any of it. A forgotten
// lock around a Stage/Publish pair is exactly the TOCTOU window the
// rest of the suite exists to close, except the attacker is a
// concurrent goroutine instead of the host.
//
// The rule is a forward lockset dataflow over the shared CFG engine
// (cfg.go), must/may per mutex, driven by two annotations plus
// structural recognition of the sync.Mutex idioms:
//
//	//ciovet:locked [field]
//
// on a function or method declares that callers must hold the named
// mutex (default "mu") of the receiver's owner before calling. Applied
// to every Engine hot-path method and the *Locked helper families.
//
//	//ciovet:guards mu
//
// on a struct field declares which sibling mutex protects it, so a
// call through the field (e.eng.Stage() where eng is guarded by mu)
// resolves to the owner's mutex e.mu rather than to a mutex of the
// engine itself, which has none by design.
//
// Structurally, x.f.Lock()/x.f.Unlock() update the lockset (RLock and
// RUnlock count as the same lock), `defer x.f.Unlock()` keeps the lock
// held to every exit, and a function that acquires a parameter's mutex
// itself is summarized as self-locking for that slot.
//
// Reported, each on the path where it holds:
//   - a call to a //ciovet:locked function without the owner's mutex in
//     the must-held lockset (unless the owner provably originates in
//     this function — the constructor exemption);
//   - double acquire of the same mutex, including calling a
//     self-locking function while already holding the mutex it takes;
//   - lock-order inversion: two annotated mutex classes acquired in
//     both orders anywhere in the module (imported lock-order edges
//     from dependency facts included).
//
// Requires-obligations propagate interprocedurally: a helper that
// calls a locked function on its parameter without acquiring the lock
// inherits the obligation in its own summary (and fact), pushing the
// check out to its callers instead of reporting in the middle.
var LockDiscAnalyzer = &Analyzer{
	Name: "lockdisc",
	Doc: "forward lockset analysis for the not-self-locking engine contract: calls to " +
		"//ciovet:locked functions without the owner's mutex, double acquires, and " +
		"lock-order inversions between annotated mutexes",
	Run: runLockDisc,
}

const (
	lockedMarker = "//ciovet:locked"
	guardsMarker = "//ciovet:guards"
)

// lockKey identifies one mutex as the analysis tracks it: the root
// local/parameter object the selector chain hangs off, plus the field
// path down to the mutex ("mu", "ep.mu"; empty for a bare mutex
// variable). Two chains with the same root and path are the same lock.
type lockKey struct {
	root types.Object
	path string
}

// heldLock is the per-key dataflow fact. must means held on every path
// into the current point; may means held on at least one. class is the
// mutex's order class ("safering.Endpoint.mu"), "" when the owner type
// cannot be named; pos is the first acquisition site seen.
type heldLock struct {
	must  bool
	class string
	pos   token.Pos
}

// lockSummary is one function's interprocedural locking contract.
type lockSummary struct {
	requires map[int]string // param slot -> mutex field callers must hold
	acquires map[int]string // param slot -> mutex field the body takes itself
}

// localEdge is one lock-order edge observed in this package, with the
// acquisition site for diagnostics.
type localEdge struct {
	from, to string
	pos      token.Pos
}

// ldState is the package-wide analysis state shared by both phases.
type ldState struct {
	summaries
	sums   map[*htFunc]*lockSummary
	guards map[types.Object]string // struct field object -> guarding mutex name
	edges  []localEdge
}

func runLockDisc(pass *Pass) error {
	st := &ldState{
		summaries: newSummaries(pass),
		sums:      make(map[*htFunc]*lockSummary),
		guards:    collectGuards(pass),
	}
	for _, hf := range st.ordered {
		st.sums[hf] = initialLockSummary(hf)
	}
	// Requires-obligations propagate to the fixpoint; the reporting walk
	// also collects the lock-order edges.
	st.solve(st.analyzeFunc)
	st.reportInversions()

	// Export the non-trivial summaries and the order edges as facts.
	for _, hf := range st.ordered {
		pass.ExportLock(hf.obj, lockFactOf(st.sums[hf]))
	}
	for _, e := range dedupEdges(st.edges) {
		pass.ExportLockEdge(LockEdge{From: e.from, To: e.to})
	}
	return nil
}

// initialLockSummary seeds a function's summary from its
// //ciovet:locked annotation: the receiver (or first parameter, for a
// plain function) slot requires the named mutex, default "mu".
func initialLockSummary(hf *htFunc) *lockSummary {
	sum := &lockSummary{
		requires: make(map[int]string),
		acquires: make(map[int]string),
	}
	if text, pos := markerText(hf.decl.Doc, lockedMarker); pos != token.NoPos {
		field := "mu"
		if f := strings.Fields(text); len(f) > 0 {
			field = f[0]
		}
		sum.requires[0] = field
	}
	return sum
}

// collectGuards indexes //ciovet:guards markers on struct fields: the
// field object maps to the name of the sibling mutex that protects it.
func collectGuards(pass *Pass) map[types.Object]string {
	guards := make(map[types.Object]string)
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
				srt, ok := ts.Type.(*ast.StructType)
				if !ok || srt.Fields == nil {
					continue
				}
				for _, fld := range srt.Fields.List {
					text, pos := markerText(fld.Doc, guardsMarker)
					if pos == token.NoPos {
						text, pos = markerText(fld.Comment, guardsMarker)
					}
					if pos == token.NoPos {
						continue
					}
					mu := "mu"
					if f := strings.Fields(text); len(f) > 0 {
						mu = f[0]
					}
					for _, name := range fld.Names {
						if o := pass.TypesInfo.Defs[name]; o != nil {
							guards[o] = mu
						}
					}
				}
			}
		}
	}
	return guards
}

// ldScope is the per-function analysis context.
type ldScope struct {
	st    *ldState
	fn    *htFunc
	sum   *lockSummary
	fresh map[types.Object]bool
	state map[lockKey]heldLock
}

func (st *ldState) analyzeFunc(hf *htFunc) {
	sc := &ldScope{
		st:    st,
		fn:    hf,
		sum:   st.sums[hf],
		fresh: freshObjects(st.pass.TypesInfo, hf.decl.Body),
	}
	sc.run()
}

// entryState seeds the lockset with every mutex the function's own
// summary obliges its callers to hold.
func (sc *ldScope) entryState() map[lockKey]heldLock {
	state := make(map[lockKey]heldLock)
	for _, slot := range sortedSlots(sc.sum.requires) {
		m := sc.sum.requires[slot]
		if slot >= len(sc.fn.params) || sc.fn.params[slot] == nil {
			continue
		}
		p := sc.fn.params[slot]
		state[lockKey{root: p, path: m}] = heldLock{
			must:  true,
			class: lockClass(p.Type(), m),
			pos:   p.Pos(),
		}
	}
	return state
}

func (sc *ldScope) run() {
	f := flow[lockKey, heldLock]{transfer: sc.transfer, join: joinLockState}
	f.run(sc.fn.cfg(), sc.entryState(), sc.st.report)
}

// joinLockState merges src into dst at a control-flow join: may is the
// union, must the intersection (a key absent from src is not held on
// that path, so its must bit drops). Reports whether dst changed.
func joinLockState(dst, src map[lockKey]heldLock) bool {
	changed := false
	for k, sv := range src {
		dv, ok := dst[k]
		if !ok {
			sv.must = false // not held on the path(s) already joined in
			dst[k] = sv
			changed = true
			continue
		}
		nv := heldLock{must: dv.must && sv.must, class: dv.class, pos: dv.pos}
		if nv.class == "" {
			nv.class = sv.class
		}
		if nv != dv {
			dst[k] = nv
			changed = true
		}
	}
	for k, dv := range dst {
		if _, ok := src[k]; !ok && dv.must {
			dv.must = false
			dst[k] = dv
			changed = true
		}
	}
	return changed
}

// freshObjects collects variables bound to values constructed inside
// this function — composite literals and New* constructor calls. A
// constructor wiring up an endpoint before publishing it legitimately
// calls locked methods with no lock: no other goroutine can see the
// object yet.
func freshObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	constructed := func(e ast.Expr) bool {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		switch x := e.(type) {
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			return strings.HasPrefix(calleeName(x), "New")
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.DEFINE && as.Tok != token.ASSIGN) || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || !constructed(as.Rhs[i]) {
				continue
			}
			if o := info.Defs[id]; o != nil {
				fresh[o] = true
			} else if o := info.Uses[id]; o != nil {
				fresh[o] = true
			}
		}
		return true
	})
	return fresh
}

// transfer interprets one block's nodes against state, recording
// summary facts always and diagnostics only when report is set.
func (sc *ldScope) transfer(b *cfgBlock, state map[lockKey]heldLock, report bool) map[lockKey]heldLock {
	sc.state = state
	for _, n := range b.nodes {
		switch x := n.(type) {
		case *ast.DeferStmt:
			sc.deferStmt(x, report)
		case *ast.GoStmt:
			// The goroutine body runs under its own schedule with its
			// own (empty) lockset; captures are not modeled.
		case *ast.AssignStmt:
			sc.effects(x.Rhs, report)
			sc.killAssigned(x)
		case *ast.RangeStmt:
			sc.effects([]ast.Expr{x.X}, report)
			// Loop head: the key/value bindings are fresh objects each
			// iteration — any lock tracked through them no longer
			// refers to the same mutex.
			for _, kv := range []ast.Expr{x.Key, x.Value} {
				if id, ok := kv.(*ast.Ident); ok {
					if o := identObjOf(sc.st.pass.TypesInfo, id); o != nil {
						sc.killRoot(o)
					}
				}
			}
		case ast.Node:
			sc.effectsNode(x, report)
		}
	}
	return state
}

func identObjOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// killAssigned drops every tracked lock rooted at a variable the
// assignment rebinds: the name no longer denotes the locked object.
func (sc *ldScope) killAssigned(as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	for _, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if o := identObjOf(sc.st.pass.TypesInfo, id); o != nil {
				sc.killRoot(o)
			}
		}
	}
}

func (sc *ldScope) killRoot(o types.Object) {
	for k := range sc.state {
		if k.root == o {
			delete(sc.state, k)
		}
	}
}

func (sc *ldScope) effects(exprs []ast.Expr, report bool) {
	for _, e := range exprs {
		sc.effectsNode(e, report)
	}
}

// effectsNode walks one node in source order applying lock effects:
// mutex Lock/Unlock calls and calls to summarized/locked functions.
// Closure bodies are skipped — a closure runs on its own schedule (or
// deferred, handled separately).
func (sc *ldScope) effectsNode(n ast.Node, report bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			sc.callEffect(v, report)
		}
		return true
	})
}

// mutexOp classifies call as a Lock/Unlock-family call on a sync.Mutex
// or sync.RWMutex, returning the receiver expression and whether it
// acquires. TryLock is ignored: it may fail, so it proves nothing.
func mutexOp(info *types.Info, call *ast.CallExpr) (recv ast.Expr, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	tv, has := info.Types[sel.X]
	if !has || !isMutexType(tv.Type) {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return sel.X, true, true
	case "Unlock", "RUnlock":
		return sel.X, false, true
	}
	return nil, false, false
}

func isMutexType(t types.Type) bool {
	return typeIs(t, "sync", "Mutex") || typeIs(t, "sync", "RWMutex")
}

// resolveMutexExpr turns a mutex-valued expression (e.mu, s.ep.mu, or
// a bare mutex variable) into its lock key and order class. ok is
// false for receivers the analysis cannot name (map elements, call
// results), which are skipped rather than guessed at.
func (sc *ldScope) resolveMutexExpr(e ast.Expr) (lockKey, string, bool) {
	info := sc.st.pass.TypesInfo
	var fields []string
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SelectorExpr:
			fields = append([]string{v.Sel.Name}, fields...)
			e = v.X
		case *ast.Ident:
			o := identObjOf(info, v)
			if o == nil {
				return lockKey{}, "", false
			}
			key := lockKey{root: o, path: strings.Join(fields, ".")}
			class := ""
			if len(fields) == 0 {
				// Bare mutex variable: no owner type to class it under.
				return key, "", true
			}
			// The class names the mutex by its immediate owner's type:
			// for e.eng.mu that is the engine type, not the endpoint.
			ownerT := o.Type()
			for _, f := range fields[:len(fields)-1] {
				ownerT = fieldType(ownerT, f)
				if ownerT == nil {
					return key, "", true
				}
			}
			class = lockClass(ownerT, fields[len(fields)-1])
			return key, class, true
		default:
			return lockKey{}, "", false
		}
	}
}

// fieldType resolves the type of field name on (possibly pointer-to)
// struct type t, or nil.
func fieldType(t types.Type, name string) types.Type {
	n := namedType(t)
	if n == nil {
		return nil
	}
	s, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < s.NumFields(); i++ {
		if s.Field(i).Name() == name {
			return s.Field(i).Type()
		}
	}
	return nil
}

// lockClass names a mutex's order class from its owner type and field
// name: "safering.Endpoint.mu". Empty when the owner is unnamed —
// classless locks are tracked for double-acquire but carry no ordering
// edges.
func lockClass(ownerT types.Type, field string) string {
	n := namedType(ownerT)
	if n == nil || n.Obj() == nil {
		return ""
	}
	name := n.Obj().Name()
	if pkg := n.Obj().Pkg(); pkg != nil {
		return pkg.Name() + "." + name + "." + field
	}
	return name + "." + field
}

// acquireKey puts k into the must-held lockset, reporting a double
// acquire when it may already be held and recording lock-order edges
// from every other held class.
func (sc *ldScope) acquireKey(k lockKey, class string, pos token.Pos, report bool) {
	if held, ok := sc.state[k]; ok {
		if report {
			onPath := "already held on this path"
			if !held.must {
				onPath = "may already be held on this path"
			}
			sc.st.pass.Reportf(pos, "double acquire of %s: %s — self-deadlock (lockdisc)",
				lockName(k, class), onPath)
		}
		held.must = true
		sc.state[k] = held
		return
	}
	if report && class != "" {
		for ok, hv := range sc.state {
			if ok != k && hv.class != "" && hv.class != class {
				sc.st.edges = append(sc.st.edges, localEdge{from: hv.class, to: class, pos: pos})
			}
		}
	}
	sc.state[k] = heldLock{must: true, class: class, pos: pos}
}

func lockName(k lockKey, class string) string {
	if class != "" {
		return class
	}
	if k.path == "" {
		return k.root.Name()
	}
	return k.root.Name() + "." + k.path
}

// callEffect applies one call's locking effect: a structural mutex
// operation, or a call into a function with a locking summary (local,
// annotated, or imported as a fact).
func (sc *ldScope) callEffect(call *ast.CallExpr, report bool) {
	info := sc.st.pass.TypesInfo

	if recv, acquire, ok := mutexOp(info, call); ok {
		k, class, resolved := sc.resolveMutexExpr(recv)
		if !resolved {
			return
		}
		if acquire {
			sc.acquireKey(k, class, call.Pos(), report)
			sc.recordStructuralAcquire(k)
		} else {
			delete(sc.state, k)
		}
		return
	}

	fn, args := resolveCallee(info, call)
	if fn == nil {
		return
	}
	var requires, acquires map[int]string
	if hf := sc.st.fns[fn]; hf != nil {
		sum := sc.st.sums[hf]
		requires, acquires = sum.requires, sum.acquires
	} else if f := sc.st.pass.ImportedLock(fn); f != nil {
		requires, acquires = f.Requires, f.Acquires
	} else {
		return
	}

	for _, slot := range sortedSlots(requires) {
		m := requires[slot]
		if slot >= len(args) {
			continue
		}
		k, class, resolved := sc.lockForOwner(args[slot], m)
		if !resolved {
			continue
		}
		held, have := sc.state[k]
		if have && held.must {
			continue
		}
		if sc.fresh[k.root] {
			continue // constructor exemption: the owner is unpublished
		}
		// A parameter whose mutex is never touched here propagates the
		// obligation to this function's own summary instead of reporting
		// mid-chain — callers hold locks, helpers inherit contracts. A
		// may-held key stays a report: the lock exists on some paths, so
		// the unheld path is a bug here, not a contract for callers.
		if !have {
			if pi := sc.fn.paramIndex(k.root); pi >= 0 && k.path == m {
				if _, had := sc.sum.requires[pi]; !had {
					sc.sum.requires[pi] = m
					sc.st.changed = true
				}
				continue
			}
		}
		if report {
			sc.st.pass.Reportf(call.Pos(),
				"call to %s requires holding %s (//ciovet:locked), not held on this path; "+
					"acquire the owner's mutex or mark the callee's guard field //ciovet:guards (lockdisc)",
				fn.Name(), lockName(k, class))
		}
	}

	for _, slot := range sortedSlots(acquires) {
		m := acquires[slot]
		if slot >= len(args) {
			continue
		}
		k, class, resolved := sc.lockForOwner(args[slot], m)
		if !resolved {
			continue
		}
		if _, held := sc.state[k]; held {
			if report {
				sc.st.pass.Reportf(call.Pos(),
					"%s acquires %s, which is already held on this path — self-deadlock (lockdisc)",
					fn.Name(), lockName(k, class))
			}
			continue
		}
		if report && class != "" {
			for ok, hv := range sc.state {
				if ok != k && hv.class != "" && hv.class != class {
					sc.st.edges = append(sc.st.edges, localEdge{from: hv.class, to: class, pos: call.Pos()})
				}
			}
		}
		// The callee releases before returning: no lasting state change.
	}
}

// recordStructuralAcquire notes in the summary that this function
// acquires a parameter's mutex itself — unless its own contract says
// callers hold that mutex (the unlock/relock window of a spin helper
// re-acquires, it does not self-lock).
func (sc *ldScope) recordStructuralAcquire(k lockKey) {
	pi := sc.fn.paramIndex(k.root)
	if pi < 0 || k.path == "" || strings.Contains(k.path, ".") {
		return
	}
	if sc.sum.requires[pi] == k.path {
		return
	}
	if _, have := sc.sum.acquires[pi]; !have {
		sc.sum.acquires[pi] = k.path
		sc.st.changed = true
	}
}

// lockForOwner resolves the lock a callee's requires/acquires slot
// refers to at this call site. A guarded field (x.G with //ciovet:guards
// g) resolves to the owner's mutex (x, g); otherwise the owner
// expression's root identifier carries the named mutex directly.
func (sc *ldScope) lockForOwner(owner ast.Expr, m string) (lockKey, string, bool) {
	info := sc.st.pass.TypesInfo
	owner = ast.Unparen(owner)
	if sel, ok := owner.(*ast.SelectorExpr); ok {
		if s, has := info.Selections[sel]; has && s.Kind() == types.FieldVal {
			if g, guarded := sc.st.guards[s.Obj()]; guarded {
				if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
					if o := identObjOf(info, id); o != nil {
						return lockKey{root: o, path: g}, lockClass(o.Type(), g), true
					}
				}
				return lockKey{}, "", false
			}
		}
	}
	// Fall back to the owner chain rooted at an identifier, keeping the
	// full field path: e.deadLocked() resolves to (e, m), while
	// g.relay.push() resolves to (g, "relay."+m) — the relay's own mutex,
	// NOT g's. Collapsing the chain to its root would alias every inner
	// object's lock onto the outer one and report self-deadlocks that
	// cannot happen; owners whose lock really is the wrapper's belong
	// under //ciovet:guards, handled above.
	root := owner
	var fields []string
	for {
		switch v := root.(type) {
		case *ast.ParenExpr:
			root = v.X
		case *ast.UnaryExpr:
			root = v.X // &owner passed by address
		case *ast.SelectorExpr:
			fields = append([]string{v.Sel.Name}, fields...)
			root = v.X
		case *ast.Ident:
			o := identObjOf(info, v)
			if o == nil {
				return lockKey{}, "", false
			}
			path := m
			ownerT := o.Type()
			if len(fields) > 0 {
				path = strings.Join(fields, ".") + "." + m
				for _, f := range fields {
					ownerT = fieldType(ownerT, f)
					if ownerT == nil {
						return lockKey{}, "", false
					}
				}
			}
			return lockKey{root: o, path: path}, lockClass(ownerT, m), true
		default:
			return lockKey{}, "", false
		}
	}
}

// deferStmt handles deferred unlocks: `defer x.f.Unlock()` (directly
// or inside a deferred closure) keeps the lock held to every function
// exit, which in this model is a no-op on the lockset. A deferred
// re-Lock is not an idiom the module uses; other deferred calls have
// their effects at exit, past every point this analysis checks.
func (sc *ldScope) deferStmt(x *ast.DeferStmt, report bool) {
	if _, _, ok := mutexOp(sc.st.pass.TypesInfo, x.Call); ok {
		return
	}
	if _, ok := x.Call.Fun.(*ast.FuncLit); ok {
		return
	}
	// A deferred call into a summarized function (defer q.mu.Unlock() is
	// handled above; defer e.release() may require locks) is checked with
	// the lockset at the defer statement — an approximation that matches
	// how the module schedules its deferred cleanups.
	sc.callEffect(x.Call, report)
}

// reportInversions reports each pair of mutex classes acquired in both
// orders — locally, or one direction here and the other recorded in a
// dependency's exported edges — once, at the earliest local evidence.
func (sc *ldState) reportInversions() {
	edges := dedupEdges(sc.edges)
	dir := make(map[[2]string]token.Pos, len(edges))
	for _, e := range edges {
		dir[[2]string{e.from, e.to}] = e.pos
	}
	imported := make(map[[2]string]bool)
	for _, e := range sc.pass.ImportedLockEdges() {
		imported[[2]string{e.From, e.To}] = true
	}
	seen := make(map[[2]string]bool)
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		revPos, localRev := dir[[2]string{e.to, e.from}]
		if !localRev && !imported[[2]string{e.to, e.from}] {
			continue
		}
		pair := [2]string{e.from, e.to}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		pos := e.pos
		if localRev && revPos < pos {
			pos = revPos
		}
		sc.pass.Reportf(pos, "lock-order inversion: %s and %s are acquired in both orders; "+
			"pick one order module-wide or the two paths deadlock (lockdisc)", pair[0], pair[1])
	}
}

// dedupEdges keeps one edge per (from, to) pair, at the earliest
// position, in deterministic order.
func dedupEdges(edges []localEdge) []localEdge {
	best := make(map[[2]string]token.Pos)
	for _, e := range edges {
		k := [2]string{e.from, e.to}
		if p, ok := best[k]; !ok || e.pos < p {
			best[k] = e.pos
		}
	}
	out := make([]localEdge, 0, len(best))
	for k, p := range best {
		out = append(out, localEdge{from: k[0], to: k[1], pos: p})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// lockFactOf converts a final summary into its exportable fact, or nil
// when the function neither requires nor acquires any lock.
func lockFactOf(sum *lockSummary) *LockFact {
	if len(sum.requires) == 0 && len(sum.acquires) == 0 {
		return nil
	}
	f := &LockFact{}
	if len(sum.requires) > 0 {
		f.Requires = make(map[int]string, len(sum.requires))
		for k, v := range sum.requires {
			f.Requires[k] = v
		}
	}
	if len(sum.acquires) > 0 {
		f.Acquires = make(map[int]string, len(sum.acquires))
		for k, v := range sum.acquires {
			f.Acquires[k] = v
		}
	}
	return f
}

// sortedSlots returns m's keys in ascending order, for deterministic
// iteration.
func sortedSlots(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
