package analysis_test

import (
	"path/filepath"
	"testing"

	"confio/internal/analysis"
	"confio/internal/analysis/analysistest"
)

func corpus() string { return filepath.Join("testdata", "src") }

func TestDoubleFetch(t *testing.T) {
	analysistest.Run(t, corpus(), analysis.DoubleFetchAnalyzer, "doublefetch")
}

func TestHostTaint(t *testing.T) {
	analysistest.Run(t, corpus(), analysis.HostTaintAnalyzer, "hosttaint")
}

// TestHostTaintLocal runs hosttaint over the flows that never leave one
// function: fetch, sanitizer and sink side by side.
func TestHostTaintLocal(t *testing.T) {
	analysistest.Run(t, corpus(), analysis.HostTaintAnalyzer, "taintlocal")
}

func TestSharedAtomic(t *testing.T) {
	// "safering" (the stub, plain words by design) exercises the
	// structural Indexes detection with no annotations present.
	analysistest.Run(t, corpus(), analysis.SharedAtomicAnalyzer, "sharedatomic", "safering")
}

func TestFatalViolation(t *testing.T) {
	analysistest.Run(t, corpus(), analysis.FatalViolationAnalyzer, "fatalviolation")
}

func TestSharedEscape(t *testing.T) {
	analysistest.Run(t, corpus(), analysis.SharedEscapeAnalyzer, "sharedescape")
}

func TestLatchClear(t *testing.T) {
	analysistest.Run(t, corpus(), analysis.LatchClearAnalyzer, "latchclear")
}

func TestBufOwn(t *testing.T) {
	analysistest.Run(t, corpus(), analysis.BufOwnAnalyzer, "bufown")
}

func TestLockDisc(t *testing.T) {
	analysistest.Run(t, corpus(), analysis.LockDiscAnalyzer, "lockdisc")
}

// The *Facts tests run dependency → dependent through a shared fact
// store (RunDeps): every finding in the second package exists only
// because the first package's exported facts crossed the boundary.
func TestLockDiscFacts(t *testing.T) {
	analysistest.RunDeps(t, corpus(), analysis.LockDiscAnalyzer, "lockfacts", "lockdep")
}

func TestHostTaintFacts(t *testing.T) {
	analysistest.RunDeps(t, corpus(), analysis.HostTaintAnalyzer, "taintfacts", "taintdep")
}

func TestBufOwnFacts(t *testing.T) {
	analysistest.RunDeps(t, corpus(), analysis.BufOwnAnalyzer, "ownfacts", "owndep")
}

// TestFactsRequireOrder pins the conservative-clean default: the same
// dependent corpus analyzed WITHOUT its dependency's facts produces no
// cross-package findings — the fact layer is what sees them.
func TestFactsRequireOrder(t *testing.T) {
	pkg, err := analysis.LoadTestdata(corpus(), "lockdep")
	if err != nil {
		t.Fatalf("loading lockdep: %v", err)
	}
	res, err := analysis.Run(pkg, []*analysis.Analyzer{analysis.LockDiscAnalyzer})
	if err != nil {
		t.Fatalf("running lockdisc: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("factless run reported %s at %s — cross-package knowledge leaked without facts",
			d.Message, pkg.Fset.Position(d.Pos))
	}
}

// TestSuite pins the rule inventory: renaming or dropping an analyzer is a
// deliberate act, not a refactoring accident.
func TestSuite(t *testing.T) {
	want := []string{"doublefetch", "hosttaint", "sharedatomic", "fatalviolation", "sharedescape", "latchclear", "bufown", "lockdisc"}
	suite := analysis.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q must carry Doc and Run", a.Name)
		}
	}
}
