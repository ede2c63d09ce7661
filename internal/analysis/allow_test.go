package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"confio/internal/analysis"
)

// TestAllowDirectives exercises the //ciovet:allow machinery end to end on
// the allowdir corpus: malformed directives — no rule, no reason, a rule
// the suite does not have — become diagnostics, directives naming the
// wrong rule suppress nothing, and well-formed (including wildcard)
// directives move findings into the suppressed set with their reasons
// preserved.
func TestAllowDirectives(t *testing.T) {
	pkg, err := analysis.LoadTestdata(filepath.Join("testdata", "src"), "allowdir")
	if err != nil {
		t.Fatalf("loading allowdir corpus: %v", err)
	}
	res, err := analysis.Run(pkg, []*analysis.Analyzer{analysis.HostTaintAnalyzer})
	if err != nil {
		t.Fatalf("running hosttaint on allowdir: %v", err)
	}

	line := func(d analysis.Diagnostic) int { return pkg.Fset.Position(d.Pos).Line }

	var allowDiags, taintDiags []analysis.Diagnostic
	for _, d := range res.Diagnostics {
		switch d.Rule {
		case "allow":
			allowDiags = append(allowDiags, d)
		case "hosttaint":
			taintDiags = append(taintDiags, d)
		default:
			t.Errorf("unexpected rule %q: %s", d.Rule, d.Message)
		}
	}

	// Three malformed directives: missing rule, missing reason, unknown rule.
	if len(allowDiags) != 3 {
		t.Fatalf("got %d allow diagnostics, want 3: %v", len(allowDiags), allowDiags)
	}
	for i, want := range []string{"missing a rule name", "needs a reason", "unknown rule hostaint"} {
		if !strings.Contains(allowDiags[i].Message, want) {
			t.Errorf("allow diagnostic %d = %q, want %q", i, allowDiags[i].Message, want)
		}
	}

	// Malformed or wrong-rule directives must not suppress: the hosttaint
	// finding in MissingRule, MissingReason, WrongRule and UnknownRule
	// still fires.
	if len(taintDiags) != 4 {
		t.Fatalf("got %d hosttaint diagnostics, want 4 (MissingRule, MissingReason, WrongRule, UnknownRule): %v",
			len(taintDiags), taintDiags)
	}

	// The exact and wildcard directives suppress, with reasons on record.
	if len(res.Suppressed) != 2 {
		t.Fatalf("got %d suppressions, want 2 (Suppressed, Wildcard): %v",
			len(res.Suppressed), res.Suppressed)
	}
	for _, s := range res.Suppressed {
		if s.Rule != "hosttaint" {
			t.Errorf("suppression at line %d has rule %q, want hosttaint", line(s.Diagnostic), s.Rule)
		}
		if s.Reason == "" {
			t.Errorf("suppression at line %d lost its reason", line(s.Diagnostic))
		}
	}
}
