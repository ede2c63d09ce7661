package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowDirective is one parsed //ciovet:allow comment.
type allowDirective struct {
	file   string
	line   int // line the directive applies to (its own line, or the next)
	rule   string
	reason string
}

// allowIndex maps (file, line, rule) to a suppression reason.
type allowIndex map[string]map[int][]allowDirective

const directivePrefix = "//ciovet:allow"

// buildAllowIndex scans every comment in the package for //ciovet:allow
// directives. A directive suppresses matching diagnostics on its own source
// line and, when it stands alone on a line, on the following line — the two
// placements gofmt permits. Malformed directives come back as diagnostics:
// the escape hatch must always carry a rule of the suite (or *) and a
// reason — a misspelt or retired rule would otherwise suppress nothing,
// silently, forever.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Rule: "allow",
						Message: "ciovet:allow directive is missing a rule name"})
					continue
				}
				rule := fields[0]
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), rule))
				if reason == "" {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Rule: "allow",
						Message: "ciovet:allow " + rule + " needs a reason: opting out of a hardening rule must be auditable"})
					continue
				}
				if !knownRule(rule) {
					bad = append(bad, Diagnostic{Pos: c.Pos(), Rule: "allow",
						Message: "ciovet:allow names unknown rule " + rule + " (ciovet -list shows the rules)"})
					continue
				}
				pos := fset.Position(c.Pos())
				d := allowDirective{file: pos.Filename, rule: rule, reason: reason}
				// Trailing comment suppresses its own line; a standalone
				// directive line suppresses the next line.
				d.line = pos.Line
				idx.add(d)
				d.line = pos.Line + 1
				idx.add(d)
			}
		}
	}
	return idx, bad
}

// knownRule reports whether a directive may name rule: a Suite analyzer,
// or the wildcard.
func knownRule(rule string) bool {
	if rule == "*" {
		return true
	}
	for _, a := range Suite() {
		if a.Name == rule {
			return true
		}
	}
	return false
}

func (ix allowIndex) add(d allowDirective) {
	byLine := ix[d.file]
	if byLine == nil {
		byLine = make(map[int][]allowDirective)
		ix[d.file] = byLine
	}
	byLine[d.line] = append(byLine[d.line], d)
}

// markerLines records the source lines a line directive covers: the
// directive's own line and the line below it, the trailing and
// standalone placements gofmt permits (as for //ciovet:allow). The
// markers read this way are //ciovet:sanitized (hosttaint),
// //ciovet:transfers (bufown) and //ciovet:shared (sharedatomic).
type markerLines map[string]map[int]bool

// buildMarkerLines scans every comment in files for the directive prefix.
func buildMarkerLines(fset *token.FileSet, files []*ast.File, prefix string) markerLines {
	idx := make(markerLines)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]bool)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = true
				byLine[pos.Line+1] = true
			}
		}
	}
	return idx
}

// covers reports whether pos sits on a marked line.
func (ix markerLines) covers(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	return ix[p.Filename][p.Line]
}

// match reports whether a diagnostic for rule at pos is suppressed, and the
// recorded reason. The rule "*" in a directive matches every rule.
func (ix allowIndex) match(fset *token.FileSet, pos token.Pos, rule string) (string, bool) {
	if ix == nil {
		return "", false
	}
	p := fset.Position(pos)
	for _, d := range ix[p.Filename][p.Line] {
		if d.rule == rule || d.rule == "*" {
			return d.reason, true
		}
	}
	return "", false
}
