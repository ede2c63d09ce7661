package analysis

import (
	"go/ast"
)

// DoubleFetchAnalyzer enforces the paper's single-fetch rule (ring design
// principle: "checked, snapshotted inputs"; Fig. 2-4 bug class: TOCTOU
// double fetch). Host-writable shared memory may change between any two
// reads, so a function must fetch each shared location exactly once,
// snapshot it into private memory, and interpret only the snapshot. The
// analyzer flags a second fetch of the same (region, offset) — or a second
// descriptor/index snapshot for the same position — inside one function,
// unless the two fetches sit in mutually exclusive branches.
var DoubleFetchAnalyzer = &Analyzer{
	Name: "doublefetch",
	Doc: "flags repeated reads of the same shared-memory location in one function; " +
		"shared bytes must be snapshotted once before any field is interpreted",
	Run: runDoubleFetch,
}

// fetchSite is one read of shared memory at a syntactic (receiver, offset).
type fetchSite struct {
	call  *ast.CallExpr
	path  []ast.Node // ancestors within the function body
	recv  string
	off   string
	class string // byte range class: desc header, payload, raw
	loops int    // number of enclosing loops (reads at loop-varying offsets)
}

func runDoubleFetch(pass *Pass) error {
	for _, file := range pass.Files {
		eachFunc(file, func(name string, body *ast.BlockStmt) {
			sites := map[string][]fetchSite{}
			walkStack(body, func(n ast.Node, stack []ast.Node) bool {
				if _, isLit := n.(*ast.FuncLit); isLit && len(stack) > 0 {
					return false // closures are separate functions
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				recv, method, ok := sharedRead(pass.TypesInfo, call)
				if !ok {
					return true
				}
				off := fetchOffsetArg(call, method)
				if off == nil {
					return true
				}
				site := fetchSite{
					call:  call,
					path:  append([]ast.Node(nil), stack...),
					recv:  exprString(pass.Fset, recv),
					off:   exprString(pass.Fset, off),
					class: accessClass(method),
				}
				for _, a := range stack {
					switch a.(type) {
					case *ast.ForStmt, *ast.RangeStmt:
						site.loops++
					}
				}
				key := site.recv + "\x00" + site.class + "\x00" + site.off
				for _, prev := range sites[key] {
					if exclusiveBranches(prev.path, site.path) {
						continue
					}
					// The same call site re-executed across loop
					// iterations reads a different logical slot; two
					// distinct sites are a double fetch regardless.
					pass.Reportf(call.Pos(),
						"double fetch of shared location %s at offset %s (first read at line %d); "+
							"snapshot the first read into a local instead of re-reading host-writable memory",
						site.recv, site.off, pass.Fset.Position(prev.call.Pos()).Line)
					break
				}
				sites[key] = append(sites[key], site)
				return true
			})
		})
	}
	return nil
}

// accessClass groups accessors that read the same bytes for a given
// position. ReadDesc reads a slot's descriptor header while ReadInline
// reads its payload: the same position, disjoint bytes, so one of each is
// the sanctioned snapshot pattern, not a double fetch.
func accessClass(method string) string {
	switch method {
	case "ReadDesc", "UsedEntry":
		return "desc"
	case "ReadInline":
		return "payload"
	}
	return "raw"
}

// fetchOffsetArg returns the argument expression that selects *where* the
// fetch reads, per accessor shape, or nil for calls with no position.
func fetchOffsetArg(call *ast.CallExpr, method string) ast.Expr {
	switch method {
	case "Byte", "U16", "U32", "U64", "Slice", "ReadDesc", "ReadInline", "UsedEntry":
		if len(call.Args) >= 1 {
			return call.Args[0]
		}
	case "ReadAt": // ReadAt(dst, off)
		if len(call.Args) >= 2 {
			return call.Args[1]
		}
		// LoadProd/LoadCons are deliberately excluded: spin-waits re-read
		// an index by design, and index misuse is caught by checkPeer*
		// validation plus the hosttaint rule.
	}
	return nil
}
