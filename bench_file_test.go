package confio_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// TestBenchFileListsEveryBenchmark holds the committed BENCH.txt to the
// benchmarks this package declares. `make bench` regenerates the file;
// a benchmark added, renamed or deleted without a re-run fails here, and
// so does a run that died before its last benchmark.
func TestBenchFileListsEveryBenchmark(t *testing.T) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
				declared[fn.Name.Name] = true
			}
		}
	}

	data, err := os.ReadFile("BENCH.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "Benchmark") {
			// "BenchmarkFig5/echo/tunnel-2  \t ..." names BenchmarkFig5.
			top := strings.FieldsFunc(line, func(r rune) bool { return r == '/' || r == '-' || unicode.IsSpace(r) })
			recorded[top[0]] = true
		}
	}

	var missing, stale []string
	for name := range declared {
		if !recorded[name] {
			missing = append(missing, name)
		}
	}
	for name := range recorded {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing)+len(stale) > 0 {
		t.Fatalf("BENCH.txt is stale, re-run `make bench`: not recorded %v; no longer declared %v", missing, stale)
	}
}
