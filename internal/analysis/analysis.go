// Package analysis is confio's static-analysis layer: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis driver model, plus
// the ciovet analyzer suite that mechanically enforces the paper's
// trust-boundary hardening rules (single fetch, masked indexing, fail-dead
// violation handling, revocation-vs-copy escape discipline).
//
// The framework mirrors the upstream API shape (Analyzer, Pass, Diagnostic)
// so the suite can be ported onto x/tools unchanged once the dependency is
// available; it is built on go/ast + go/types only because this build
// environment is offline.
//
// Suppression: a deliberate violation — adversarial code in internal/attack,
// or a legacy driver path that exists to model an unsafe baseline — opts out
// loudly with a directive comment on the flagged line or the line above:
//
//	//ciovet:allow <rule> <reason...>
//
// A directive with no reason, or naming no rule of the suite, is itself a
// diagnostic: opting out of a hardening rule must be auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Analyzer describes one ciovet rule: a named, documented check that runs
// over a single type-checked package.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// //ciovet:allow directives.
	Name string
	// Doc describes what the rule enforces and which paper principle /
	// Fig. 2-4 bug class it is grounded in.
	Doc string
	// Run applies the rule to one package via the Pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, attributed to the rule that produced it.
type Diagnostic struct {
	Pos     token.Pos
	Rule    string
	Message string
}

// Suppression records a diagnostic that was silenced by a
// //ciovet:allow directive, so drivers can count and audit opt-outs.
type Suppression struct {
	Diagnostic
	Reason string
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// x/tools' analysis.Pass, plus the fact-layer plumbing: imported facts of
// every dependency analyzed before this package, and the outgoing fact
// set this package's analyzers export for their dependents.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allow       allowIndex
	diagnostics []Diagnostic
	suppressed  []Suppression
	facts       *FactStore // imported dependency facts; nil outside RunWithFacts
	export      *PkgFacts  // this package's outgoing facts; nil outside RunWithFacts
}

// importedOnly guards fact lookups: only out-of-package functions are
// resolved through the store — in-package callees always use the live
// (and more precise) local summaries.
func (p *Pass) importedOnly(fn *types.Func) *types.Func {
	if p.facts == nil || fn == nil || fn.Pkg() == nil || fn.Pkg() == p.Pkg {
		return nil
	}
	return fn
}

// ImportedTaint returns the dependency taint fact for fn, or nil when fn
// is local, unknown, or no facts are loaded.
func (p *Pass) ImportedTaint(fn *types.Func) *TaintFact {
	if fn = p.importedOnly(fn); fn == nil {
		return nil
	}
	return p.facts.Taint(fn)
}

// ImportedOwn returns the dependency ownership fact for fn, or nil.
func (p *Pass) ImportedOwn(fn *types.Func) *OwnFact {
	if fn = p.importedOnly(fn); fn == nil {
		return nil
	}
	return p.facts.Own(fn)
}

// ImportedLock returns the dependency lock-discipline fact for fn, or nil.
func (p *Pass) ImportedLock(fn *types.Func) *LockFact {
	if fn = p.importedOnly(fn); fn == nil {
		return nil
	}
	return p.facts.Lock(fn)
}

// ImportedLockEdges returns every lock-order edge exported by packages
// analyzed before this one.
func (p *Pass) ImportedLockEdges() []LockEdge {
	if p.facts == nil {
		return nil
	}
	return p.facts.Edges()
}

// ExportTaint records fn's taint summary in this package's outgoing
// facts. A no-op when the pass runs without a fact store (old drivers,
// single-package corpus tests), so analyzers export unconditionally.
func (p *Pass) ExportTaint(fn *types.Func, f *TaintFact) {
	if p.export != nil && fn != nil && f != nil {
		p.export.Taint[FuncKey(fn)] = f
	}
}

// ExportOwn records fn's ownership summary in the outgoing facts.
func (p *Pass) ExportOwn(fn *types.Func, f *OwnFact) {
	if p.export != nil && fn != nil && f != nil {
		p.export.Own[FuncKey(fn)] = f
	}
}

// ExportLock records fn's lock-discipline summary in the outgoing facts.
func (p *Pass) ExportLock(fn *types.Func, f *LockFact) {
	if p.export != nil && fn != nil && f != nil {
		p.export.Lock[FuncKey(fn)] = f
	}
}

// ExportLockEdge records one lock-order edge in the outgoing facts.
func (p *Pass) ExportLockEdge(e LockEdge) {
	if p.export != nil {
		p.export.Edges = append(p.export.Edges, e)
	}
}

// Reportf records a diagnostic at pos unless an in-scope //ciovet:allow
// directive for this rule suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{Pos: pos, Rule: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)}
	if reason, ok := p.allow.match(p.Fset, pos, p.Analyzer.Name); ok {
		p.suppressed = append(p.suppressed, Suppression{Diagnostic: d, Reason: reason})
		return
	}
	p.diagnostics = append(p.diagnostics, d)
}

// Result is the outcome of running a set of analyzers over one package.
type Result struct {
	Diagnostics []Diagnostic
	Suppressed  []Suppression
}

// Package is one loaded, type-checked compilation unit ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// Imports are the package's direct import paths, for dependency-
	// ordered (fact-aware) module analysis.
	Imports []string
}

// Run applies each analyzer to pkg and merges their findings. Malformed
// //ciovet:allow directives (missing rule or reason, or a rule Suite does
// not have) are reported as diagnostics under the rule name "allow".
// Facts are neither imported nor exported: out-of-package callees stay
// conservative-clean, the pre-fact behavior single-package corpus tests
// still pin.
func Run(pkg *Package, analyzers []*Analyzer) (Result, error) {
	return RunWithFacts(pkg, analyzers, nil)
}

// RunWithFacts applies each analyzer to pkg with the dependency facts in
// store available for import, and — when store is non-nil — records the
// package's exported facts into it.
func RunWithFacts(pkg *Package, analyzers []*Analyzer, store *FactStore) (Result, error) {
	var res Result
	allow, bad := buildAllowIndex(pkg.Fset, pkg.Files)
	res.Diagnostics = append(res.Diagnostics, bad...)
	var export *PkgFacts
	if store != nil {
		export = NewPkgFacts(pkg.Path)
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			allow:     allow,
			facts:     store,
			export:    export,
		}
		if err := a.Run(pass); err != nil {
			return res, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
		res.Diagnostics = append(res.Diagnostics, pass.diagnostics...)
		res.Suppressed = append(res.Suppressed, pass.suppressed...)
	}
	if store != nil {
		store.Put(export)
	}
	return res, nil
}

// PkgResult pairs one package with its analysis outcome.
type PkgResult struct {
	Pkg *Package
	Res Result
}

// RunModule analyzes pkgs in dependency order with facts flowing from
// each package to its dependents, using up to workers goroutines: a
// package is scheduled the moment every in-set dependency has been
// analyzed, so independent subtrees run concurrently while every fact
// lookup still sees complete dependency summaries. Results come back
// sorted by package path — the parallel schedule never leaks into the
// output order. The returned store holds every package's facts.
func RunModule(pkgs []*Package, analyzers []*Analyzer, workers int) ([]PkgResult, *FactStore, error) {
	store := NewFactStore()
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	// In-set dependency edges only: imports outside the analyzed set
	// have no facts and impose no ordering.
	waiting := make(map[string]int, len(pkgs)) // path -> unanalyzed in-set deps
	dependents := make(map[string][]string)    // dep path -> dependent paths
	for _, p := range pkgs {
		n := 0
		for _, imp := range p.Imports {
			if _, ok := byPath[imp]; ok && imp != p.Path {
				n++
				dependents[imp] = append(dependents[imp], p.Path)
			}
		}
		waiting[p.Path] = n
	}

	if workers < 1 {
		workers = 1
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	ready := make(chan *Package, len(pkgs))
	for _, p := range pkgs {
		if waiting[p.Path] == 0 {
			ready <- p
		}
	}

	var (
		mu       sync.Mutex
		firstErr error
		done     int
		closed   bool
		results  = make(map[string]Result, len(pkgs))
		wg       sync.WaitGroup
	)
	complete := func(p *Package, res Result, err error) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			results[p.Path] = res
			for _, dep := range dependents[p.Path] {
				waiting[dep]--
				if waiting[dep] == 0 && firstErr == nil {
					ready <- byPath[dep]
				}
			}
		}
		if (done == len(pkgs) || firstErr != nil) && !closed {
			closed = true
			close(ready)
		}
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range ready {
				res, err := RunWithFacts(p, analyzers, store)
				complete(p, res, err)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if len(results) != len(pkgs) {
		// An import cycle inside the set (impossible for compiled Go
		// packages, but defend against corrupt inputs) starves workers.
		return nil, nil, fmt.Errorf("analysis: dependency schedule stalled at %d/%d packages", len(results), len(pkgs))
	}
	out := make([]PkgResult, 0, len(pkgs))
	for _, p := range pkgs {
		out = append(out, PkgResult{Pkg: p, Res: results[p.Path]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pkg.Path < out[j].Pkg.Path })
	return out, store, nil
}

// Suite returns the full ciovet analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		DoubleFetchAnalyzer,
		HostTaintAnalyzer,
		SharedAtomicAnalyzer,
		FatalViolationAnalyzer,
		SharedEscapeAnalyzer,
		LatchClearAnalyzer,
		BufOwnAnalyzer,
		LockDiscAnalyzer,
	}
}
