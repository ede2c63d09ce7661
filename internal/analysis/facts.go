package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
	"sync"
)

// This file is ciovet's fact layer: per-package serialized analysis
// summaries keyed by object, in the style of go/analysis facts. The
// interprocedural analyzers (hosttaint, bufown, lockdisc) compute
// per-function summaries to a fixpoint *within* one package; without
// facts, every out-of-package callee is assumed clean — exactly the
// blind spot the VIA audit found the worst paravirtual-interface bugs
// hiding in. With facts, a module-ordered driver (RunModule) analyzes
// dependencies first, exports their summaries into a FactStore, and
// every downstream package consults those summaries at unresolved call
// sites instead of assuming them clean.
//
// Facts are serializable (JSON) and fingerprinted so a cached fact file
// can be proven stale: each PkgFacts records the fingerprint of every
// dependency's facts it was computed against, and Stale reports any
// mismatch against the store's current content. The in-process driver
// always recomputes, but the staleness contract is what makes an
// on-disk fact cache sound, and it is pinned by a regression test.

// TaintFact is hosttaint's per-function summary, keyed by FuncKey when
// exported. RetTainted and RetFrom have one entry per result.
type TaintFact struct {
	// RetTainted marks results that carry host taint regardless of
	// arguments (the body loads them from shared memory).
	RetTainted []bool `json:"ret_tainted,omitempty"`
	// RetFrom marks results tainted when one of the listed parameter
	// slots (bitset, receiver = slot 0) is tainted at the call site.
	RetFrom []paramBits `json:"ret_from,omitempty"`
	// ParamSink maps a parameter slot to a description of the
	// unsanitized sink it (transitively) reaches in the callee.
	ParamSink map[int]string `json:"param_sink,omitempty"`
	// ParamChecked is the bitset of parameters the function compares in
	// a terminating guard — the factored-out-validator shape.
	ParamChecked paramBits `json:"param_checked,omitempty"`
	// Sanitized records a //ciovet:sanitized declaration: audited clean.
	Sanitized bool `json:"sanitized,omitempty"`
}

// OwnFact is bufown's exported per-function summary: which parameter
// slots the function consumes (releases) or transfers (stores away),
// and which results are fresh owned values the caller must settle.
type OwnFact struct {
	Consumes  uint64 `json:"consumes,omitempty"`
	Transfers uint64 `json:"transfers,omitempty"`
	RetOwned  []bool `json:"ret_owned,omitempty"`
}

// LockFact is lockdisc's exported per-function summary.
type LockFact struct {
	// Requires maps a parameter slot (receiver = slot 0) to the name of
	// the mutex field the caller must hold for that slot's object —
	// from a //ciovet:locked annotation or propagated from the body's
	// own calls to locked functions.
	Requires map[int]string `json:"requires,omitempty"`
	// Acquires maps a parameter slot to the mutex field the function
	// acquires (and releases) itself; calling it while holding that
	// mutex is a self-deadlock.
	Acquires map[int]string `json:"acquires,omitempty"`
}

// LockEdge is one lock-ordering edge: the function body acquired To
// while holding From (both are mutex class names like
// "safering.Endpoint.mu"). Edges are exported so lock-order inversions
// that span packages are still visible to the downstream analysis.
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// PkgFacts is one package's exported summaries, keyed by FuncKey.
type PkgFacts struct {
	Path  string                `json:"path"`
	Taint map[string]*TaintFact `json:"taint,omitempty"`
	Own   map[string]*OwnFact   `json:"own,omitempty"`
	Lock  map[string]*LockFact  `json:"lock,omitempty"`
	Edges []LockEdge            `json:"edges,omitempty"`
	// Fingerprint is the content hash of the summaries above, computed
	// by seal(); two analyses of identical source produce identical
	// fingerprints.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Deps records, per dependency package path, the fingerprint of the
	// facts these summaries were computed against. A mismatch against
	// the store's current facts means this entry is stale.
	Deps map[string]string `json:"deps,omitempty"`
}

// NewPkgFacts returns an empty fact set for one package.
func NewPkgFacts(path string) *PkgFacts {
	return &PkgFacts{
		Path:  path,
		Taint: make(map[string]*TaintFact),
		Own:   make(map[string]*OwnFact),
		Lock:  make(map[string]*LockFact),
		Deps:  make(map[string]string),
	}
}

// seal computes the content fingerprint over the summaries (not over
// Deps: the hash must identify this package's contract, not its
// position in the build graph).
func (f *PkgFacts) seal() {
	sort.Slice(f.Edges, func(i, j int) bool {
		if f.Edges[i].From != f.Edges[j].From {
			return f.Edges[i].From < f.Edges[j].From
		}
		return f.Edges[i].To < f.Edges[j].To
	})
	body, err := json.Marshal(struct {
		Taint map[string]*TaintFact
		Own   map[string]*OwnFact
		Lock  map[string]*LockFact
		Edges []LockEdge
	}{f.Taint, f.Own, f.Lock, f.Edges})
	if err != nil {
		// The structs above are plain data; Marshal cannot fail on them.
		panic(err)
	}
	sum := sha256.Sum256(body)
	f.Fingerprint = hex.EncodeToString(sum[:])
}

// EncodeFacts serializes one package's facts for an on-disk cache.
func EncodeFacts(f *PkgFacts) ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// DecodeFacts deserializes a fact file previously written by EncodeFacts.
func DecodeFacts(data []byte) (*PkgFacts, error) {
	var f PkgFacts
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decoding facts: %v", err)
	}
	return &f, nil
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

// Put seals f (computing its fingerprint) and inserts it, replacing any
// previous facts for the same path.
func (s *FactStore) Put(f *PkgFacts) {
	if f == nil {
		return
	}
	if f.Fingerprint == "" {
		f.seal()
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

// Fingerprint returns the recorded fingerprint for path ("" if absent).
func (s *FactStore) Fingerprint(path string) string {
	if f := s.Pkg(path); f != nil {
		return f.Fingerprint
	}
	return ""
}

// Stale reports whether f was computed against dependency facts that no
// longer match the store: any recorded dep fingerprint that differs
// from (or is missing in) the store's current facts invalidates f.
// Downstream results computed from stale facts must be recomputed —
// never reused — which is the contract an on-disk fact cache relies on.
func (s *FactStore) Stale(f *PkgFacts) bool {
	if f == nil {
		return true
	}
	for dep, fp := range f.Deps {
		if s.Fingerprint(dep) != fp {
			return true
		}
	}
	return false
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
