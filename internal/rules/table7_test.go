package rules

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/spes"
	"wetune/internal/template"
	"wetune/internal/verify"
)

func TestTable7Complete(t *testing.T) {
	rs := Table7()
	if len(rs) != 34 {
		t.Fatalf("Table7 has %d rules, want 34", len(rs))
	}
	seen := map[int]bool{}
	for _, r := range rs {
		if seen[r.No] {
			t.Errorf("duplicate rule number %d", r.No)
		}
		seen[r.No] = true
		if r.Src == nil || r.Dest == nil || r.Constraints == nil {
			t.Errorf("rule %d incomplete", r.No)
		}
		// Rule 24 trades an InSub for an IJoin, so only the total operator
		// count is checked: it must not grow.
		if r.Dest.Size() > r.Src.Size() {
			t.Errorf("rule %d: destination larger than source", r.No)
		}
		switch r.Verifier {
		case "W", "S", "B":
		default:
			t.Errorf("rule %d: bad verifier tag %q", r.No, r.Verifier)
		}
	}
}

func TestExtraRulesVerify(t *testing.T) {
	// Every extra "discovered" rule must be machine-verified by the built-in
	// verifier — that is what makes it legitimate to use in the rewriter.
	for _, r := range Extra() {
		rep := verify.Verify(r.Src, r.Dest, r.Constraints)
		if rep.Outcome != verify.Verified {
			t.Errorf("extra rule %d (%s) not verified: %v (%s)", r.No, r.Name, rep.Outcome, rep.Detail)
		}
	}
	if len(All()) != len(Table7())+len(Extra()) {
		t.Error("All() must combine Table7 and Extra")
	}
}

func TestByNo(t *testing.T) {
	r, ok := ByNo(4)
	if !ok || r.No != 4 {
		t.Fatal("ByNo(4) failed")
	}
	if _, ok := ByNo(99); ok {
		t.Fatal("ByNo(99) should fail")
	}
}

const verdictsGolden = "testdata/verdicts.golden"

// update rewrites the golden from the verifiers:
//
//	go test ./internal/rules -run TestVerdictsGolden -update
var update = flag.Bool("update", false, "rewrite "+verdictsGolden)

const verdictsHeader = `# Verdicts of every rules.All() rule, recomputed by TestVerdictsGolden:
#
#   <no> <name> <paper tag> | <built-in outcome> <method> | <SPES verdict>
#
# The paper tag is Rule.Verifier (W built-in, S SPES, B both); the other
# columns are what verify.Verify and spes.VerifyRule return today.
`

// TestVerdictsGolden pins which verifier proves which library rule. A rule
// whose verdict changes, or a rule added or removed, shows up as a changed
// row; a deliberate change is re-recorded with -update.
func TestVerdictsGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString(verdictsHeader)
	for _, r := range All() {
		rep := verify.Verify(r.Src, r.Dest, r.Constraints)
		spesVerdict := "rejected"
		if ok, _ := spes.VerifyRule(r.Src, r.Dest, r.Constraints); ok {
			spesVerdict = "verified"
		}
		fmt.Fprintf(&b, "%d %s %s | %s %s | %s\n", r.No, r.Name, r.Verifier, rep.Outcome, rep.Method, spesVerdict)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(verdictsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verdictsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("verdicts differ from %s (re-record with -update and read the diff):\n%s", verdictsGolden, got)
	}
}

// TestWeakenedRulesNeverVerify drops the integrity constraints from each
// rule that has them; the weakened rules must never verify (soundness
// negative controls).
func TestWeakenedRulesNeverVerify(t *testing.T) {
	weakened := 0
	for _, r := range All() {
		if r.Verifier == "S" {
			continue // built-in verifier does not cover these anyway
		}
		stripped := constraint.NewSet()
		hadIC := false
		for _, c := range r.Constraints.Items() {
			switch c.Kind {
			case constraint.Unique, constraint.NotNull, constraint.RefAttrs:
				hadIC = true
			default:
				stripped = stripped.Union(constraint.NewSet(c))
			}
		}
		if !hadIC {
			continue
		}
		weakened++
		rep := verify.Verify(r.Src, r.Dest, stripped)
		// The column-switch rules (30, 103) remain formally valid without
		// Unique: their SubAttrs/AttrsEq constraints already axiomatize that
		// the attribute reads agree on both join sides, so the weakened rule
		// is still correct as a *formal* rule (the rewriter separately
		// refuses to relocate reads without a Unique guard — see
		// resolver.relocate).
		axiomCarried := map[int]bool{30: true, 103: true}
		if rep.Outcome == verify.Verified && !axiomCarried[r.No] {
			t.Errorf("rule %d (%s) verifies WITHOUT its integrity constraints", r.No, r.Name)
		}
	}
	if weakened == 0 {
		t.Fatal("no IC-dependent rules found")
	}
	t.Logf("weakened %d IC-dependent rules", weakened)
}

// TestConstraintsAreMinimalish spot-checks that the curated constraint sets
// do not contain obviously redundant equality constraints (every stated
// equality must matter for at least symbol coverage).
func TestRuleSymbolsCovered(t *testing.T) {
	for _, r := range All() {
		srcSyms := map[template.Sym]bool{}
		for _, s := range r.Src.Symbols() {
			srcSyms[s] = true
		}
		// Every destination symbol must be a source symbol or tied to one.
		cl := constraint.Closure(r.Constraints)
		for _, s := range r.Dest.Symbols() {
			if srcSyms[s] || s.Kind == template.KAttrsOf {
				continue
			}
			tied := false
			for _, c := range cl.Items() {
				switch c.Kind {
				case constraint.RelEq, constraint.AttrsEq, constraint.PredEq, constraint.AggrEq:
					if (c.Syms[0] == s && srcSyms[c.Syms[1]]) || (c.Syms[1] == s && srcSyms[c.Syms[0]]) {
						tied = true
					}
				case constraint.SubAttrs:
					if c.Syms[0] == s {
						tied = true // destination-only attrs resolved by relocation
					}
				}
			}
			if !tied {
				t.Errorf("rule %d: destination symbol %s is untied", r.No, s)
			}
		}
	}
}
