package analysis_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"confio/internal/analysis"
)

// copyCorpus copies the named corpus packages from testdata/src into a
// fresh root the test can mutate.
func copyCorpus(t *testing.T, pkgs ...string) string {
	t.Helper()
	root := t.TempDir()
	for _, p := range pkgs {
		srcDir := filepath.Join(corpus(), p)
		err := filepath.WalkDir(srcDir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(corpus(), path)
			if err != nil {
				return err
			}
			dst := filepath.Join(root, rel)
			if d.IsDir() {
				return os.MkdirAll(dst, 0o755)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(dst, b, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func analyzeInto(t *testing.T, root, pkgPath string, store *analysis.FactStore) analysis.Result {
	t.Helper()
	pkg, err := analysis.LoadTestdata(root, pkgPath)
	if err != nil {
		t.Fatalf("loading %s: %v", pkgPath, err)
	}
	res, err := analysis.RunWithFacts(pkg, []*analysis.Analyzer{analysis.LockDiscAnalyzer}, store)
	if err != nil {
		t.Fatalf("analyzing %s: %v", pkgPath, err)
	}
	return res
}

func hasFinding(res analysis.Result, substr string) bool {
	for _, d := range res.Diagnostics {
		if strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

// TestFactsDeterministic: analyzing the same source twice exports equal
// facts — dependents see one contract, whatever run computed it.
func TestFactsDeterministic(t *testing.T) {
	root := copyCorpus(t, "sync", "lockfacts")
	s1, s2 := analysis.NewFactStore(), analysis.NewFactStore()
	analyzeInto(t, root, "lockfacts", s1)
	analyzeInto(t, root, "lockfacts", s2)
	f1, f2 := s1.Pkg("lockfacts"), s2.Pkg("lockfacts")
	if f1 == nil || len(f1.Lock) == 0 {
		t.Fatal("no lock facts exported for lockfacts")
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("facts differ across identical analyses:\n%+v\n%+v", f1, f2)
	}
}

// TestFactStalenessInvalidatesDownstream is the rebuild-regression test:
// when a dependency is re-analyzed with a CHANGED contract, re-analysis
// of the dependent under the new facts must change its findings —
// serving the result computed under the old facts would be wrong.
func TestFactStalenessInvalidatesDownstream(t *testing.T) {
	root := copyCorpus(t, "sync", "lockfacts", "lockdep")

	// v1: the lockfacts contract (//ciovet:locked Mu on PushLocked)
	// makes lockdep's unlocked call a finding.
	v1 := analysis.NewFactStore()
	analyzeInto(t, root, "lockfacts", v1)
	if res := analyzeInto(t, root, "lockdep", v1); !hasFinding(res, "call to PushLocked requires holding") {
		t.Fatal("v1 run missing the cross-package locked-call finding")
	}

	// Rebuild the dependency with the contract removed: PushLocked no
	// longer requires the caller to hold Mu.
	src := filepath.Join(root, "lockfacts", "lockfacts.go")
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	v2src := strings.Replace(string(b), "//ciovet:locked Mu", "// contract removed in v2", 1)
	if v2src == string(b) {
		t.Fatal("lockfacts corpus no longer carries the //ciovet:locked Mu contract this test rewrites")
	}
	if err := os.WriteFile(src, []byte(v2src), 0o644); err != nil {
		t.Fatal(err)
	}

	v2 := analysis.NewFactStore()
	analyzeInto(t, root, "lockfacts", v2)
	if reflect.DeepEqual(v1.Pkg("lockfacts"), v2.Pkg("lockfacts")) {
		t.Fatal("changed contract did not change the dependency's facts")
	}
	if res := analyzeInto(t, root, "lockdep", v2); hasFinding(res, "call to PushLocked requires holding") {
		t.Fatal("locked-call finding survived removal of the dependency contract: stale facts were reused")
	}
}
