package analysis

import (
	"go/types"
	"sort"
	"sync"
)

// This file is ciovet's fact layer: per-package analysis summaries
// keyed by object, in the style of go/analysis facts. The
// interprocedural analyzers (hosttaint, bufown, lockdisc) compute
// per-function summaries to a fixpoint *within* one package; without
// facts, every out-of-package callee is assumed clean — exactly the
// blind spot the VIA audit found the worst paravirtual-interface bugs
// hiding in. With facts, a module-ordered driver (RunModule) analyzes
// dependencies first, exports their summaries into a FactStore, and
// every downstream package consults those summaries at unresolved call
// sites instead of assuming them clean. Facts live in memory for one
// RunModule call, which always recomputes them.

// TaintFact is hosttaint's per-function summary, keyed by FuncKey when
// exported. RetTainted and RetFrom have one entry per result.
type TaintFact struct {
	// RetTainted marks results that carry host taint regardless of
	// arguments (the body loads them from shared memory).
	RetTainted []bool
	// RetFrom marks results tainted when one of the listed parameter
	// slots (bitset, receiver = slot 0) is tainted at the call site.
	RetFrom []paramBits
	// ParamSink maps a parameter slot to a description of the
	// unsanitized sink it (transitively) reaches in the callee.
	ParamSink map[int]string
	// ParamChecked is the bitset of parameters the function compares in
	// a terminating guard — the factored-out-validator shape.
	ParamChecked paramBits
	// Sanitized records a //ciovet:sanitized declaration: audited clean.
	Sanitized bool
}

// OwnFact is bufown's exported per-function summary: which parameter
// slots the function consumes (releases) or transfers (stores away),
// and which results are fresh owned values the caller must settle.
type OwnFact struct {
	Consumes, Transfers uint64
	RetOwned            []bool
}

// LockFact is lockdisc's exported per-function summary.
type LockFact struct {
	// Requires maps a parameter slot (receiver = slot 0) to the name of
	// the mutex field the caller must hold for that slot's object —
	// from a //ciovet:locked annotation or propagated from the body's
	// own calls to locked functions.
	Requires map[int]string
	// Acquires maps a parameter slot to the mutex field the function
	// acquires (and releases) itself; calling it while holding that
	// mutex is a self-deadlock.
	Acquires map[int]string
}

// LockEdge is one lock-ordering edge: the function body acquired To
// while holding From (both are mutex class names like
// "safering.Endpoint.mu"). Edges are exported so lock-order inversions
// that span packages are still visible to the downstream analysis.
type LockEdge struct{ From, To string }

// PkgFacts is one package's exported summaries, keyed by FuncKey.
type PkgFacts struct {
	Path  string
	Taint map[string]*TaintFact
	Own   map[string]*OwnFact
	Lock  map[string]*LockFact
	Edges []LockEdge
}

// NewPkgFacts returns an empty fact set for one package.
func NewPkgFacts(path string) *PkgFacts {
	return &PkgFacts{
		Path:  path,
		Taint: make(map[string]*TaintFact),
		Own:   make(map[string]*OwnFact),
		Lock:  make(map[string]*LockFact),
	}
}

// FuncKey returns the store key of one function or method: the receiver
// type name (when present) dot the function name, stable across
// re-type-checks and across generic instantiations (the origin method
// of Engine[blkDesc].Stage and Engine[Desc].Stage is the same object).
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// FactStore holds the facts of every package analyzed so far, keyed by
// import path. Safe for concurrent use: the parallel driver reads
// dependency facts from many goroutines while completed packages are
// inserted.
type FactStore struct {
	mu   sync.RWMutex
	pkgs map[string]*PkgFacts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{pkgs: make(map[string]*PkgFacts)}
}

// Put inserts f, replacing any previous facts for the same path.
func (s *FactStore) Put(f *PkgFacts) {
	if f == nil {
		return
	}
	s.mu.Lock()
	s.pkgs[f.Path] = f
	s.mu.Unlock()
}

// Pkg returns the facts recorded for path, or nil.
func (s *FactStore) Pkg(path string) *PkgFacts {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pkgs[path]
}

// Taint looks up the taint fact for fn in the store, or nil.
func (s *FactStore) Taint(fn *types.Func) *TaintFact {
	if f := s.pkgFor(fn); f != nil {
		return f.Taint[FuncKey(fn)]
	}
	return nil
}

// Own looks up the ownership fact for fn in the store, or nil.
func (s *FactStore) Own(fn *types.Func) *OwnFact {
	if f := s.pkgFor(fn); f != nil {
		return f.Own[FuncKey(fn)]
	}
	return nil
}

// Lock looks up the lock-discipline fact for fn in the store, or nil.
func (s *FactStore) Lock(fn *types.Func) *LockFact {
	if f := s.pkgFor(fn); f != nil {
		return f.Lock[FuncKey(fn)]
	}
	return nil
}

func (s *FactStore) pkgFor(fn *types.Func) *PkgFacts {
	if s == nil || fn == nil || fn.Pkg() == nil {
		return nil
	}
	return s.Pkg(fn.Pkg().Path())
}

// Edges returns every lock-order edge recorded by any package in the
// store, deterministically ordered.
func (s *FactStore) Edges() []LockEdge {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var paths []string
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var out []LockEdge
	for _, p := range paths {
		out = append(out, s.pkgs[p].Edges...)
	}
	return out
}
