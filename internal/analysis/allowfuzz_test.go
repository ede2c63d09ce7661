package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzAllowDirective hammers the //ciovet:allow parser with arbitrary
// directive tails and checks its contract: it never panics, a directive
// with no rule, no reason, or a rule the suite does not have is exactly
// one malformed-directive diagnostic, and a well-formed directive
// suppresses its rule on the directive's own line and the next line — and
// nowhere else — with the reason preserved.
func FuzzAllowDirective(f *testing.F) {
	f.Add(" hosttaint ring slot count is a compile-time power of two")
	f.Add("")
	f.Add("   ")
	f.Add(" hosttaint")
	f.Add(" * wildcard with reason")
	f.Add("\t doublefetch \t tab separated \t reason")
	f.Add(" rule reason")
	f.Add("x glued-to-the-prefix still parses as a rule")
	f.Add(" ciovet:allow nested directive text")
	f.Add(" маска причина по-русски")
	f.Fuzz(func(t *testing.T, tail string) {
		// Keep the tail inside one line comment: a newline would end the
		// comment and turn the remainder into (probably invalid) code.
		tail = strings.NewReplacer("\n", " ", "\r", " ").Replace(tail)
		src := "package p\n//ciovet:allow" + tail + "\nvar X = 1\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			t.Skip() // e.g. invalid UTF-8 in the comment
		}

		idx, bad := buildAllowIndex(fset, []*ast.File{file})

		// Positions on the three lines of interest: the package clause
		// (line 1, never covered), the directive line (2), the var decl (3).
		pkgPos := file.Name.Pos()
		var declPos token.Pos
		for _, d := range file.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
				declPos = g.Pos()
			}
		}
		if declPos == token.NoPos {
			t.Skip() // the tail corrupted the follow-on declaration
		}

		fields := strings.Fields(tail)
		switch {
		case len(fields) == 0:
			if len(bad) != 1 || !strings.Contains(bad[0].Message, "missing a rule name") {
				t.Fatalf("empty directive %q: want one missing-rule diagnostic, got %v", tail, bad)
			}
		case len(fields) == 1:
			if len(bad) != 1 || !strings.Contains(bad[0].Message, "needs a reason") {
				t.Fatalf("reason-less directive %q: want one needs-a-reason diagnostic, got %v", tail, bad)
			}
		case !knownRule(fields[0]):
			if len(bad) != 1 || !strings.Contains(bad[0].Message, "unknown rule") {
				t.Fatalf("directive %q naming no suite rule: want one unknown-rule diagnostic, got %v", tail, bad)
			}
			if _, ok := idx.match(fset, declPos, fields[0]); ok {
				t.Fatalf("directive %q naming no suite rule still suppresses", tail)
			}
		default:
			if len(bad) != 0 {
				t.Fatalf("well-formed directive %q: unexpected diagnostics %v", tail, bad)
			}
			rule := fields[0]
			reason, ok := idx.match(fset, declPos, rule)
			if !ok {
				t.Fatalf("directive %q does not suppress rule %q on the next line", tail, rule)
			}
			if reason == "" {
				t.Fatalf("directive %q suppresses %q but lost its reason", tail, rule)
			}
			if !strings.Contains(tail, reason) {
				t.Fatalf("directive %q: recorded reason %q is not a substring of the directive", tail, reason)
			}
			if _, ok := idx.match(fset, pkgPos, rule); ok {
				t.Fatalf("directive %q leaked onto the preceding line", tail)
			}
			// A non-matching rule must not be suppressed — unless the
			// directive's rule is the wildcard.
			if rule != "*" {
				if _, ok := idx.match(fset, declPos, rule+"-other"); ok {
					t.Fatalf("directive %q suppressed unrelated rule %q", tail, rule+"-other")
				}
			}
		}
	})
}
