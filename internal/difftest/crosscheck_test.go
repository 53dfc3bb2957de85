package difftest

import (
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/obs"
	"wetune/internal/rules"
	"wetune/internal/spes"
	"wetune/internal/template"
)

// TestCheckRuleAcceptsDiscoveredRules cross-checks every rule in the shipped
// rule set: the differential oracle must never contradict the verifier on a
// rule the paper proves sound. Skips (concretization limits) are fine;
// mismatches are not.
func TestCheckRuleAcceptsDiscoveredRules(t *testing.T) {
	agreed, skipped := 0, 0
	for _, r := range rules.All() {
		res, detail := CheckRule(r.Src, r.Dest, r.Constraints, 42)
		switch res {
		case Mismatched:
			t.Errorf("rule %d (%s): oracle contradicts verifier: %s", r.No, r.Name, detail)
		case Agreed:
			agreed++
		case Skipped:
			skipped++
			t.Logf("rule %d (%s) skipped: %s", r.No, r.Name, detail)
		}
	}
	if agreed == 0 {
		t.Fatalf("no rule was actually exercised (all %d skipped)", skipped)
	}
	t.Logf("cross-check: %d agreed, %d skipped", agreed, skipped)
}

// TestCheckRuleCatchesBrokenTemplateRule feeds the crosscheck unsound
// template rules, which must come back Mismatched with an explanation and
// counter movement, and sound ones, which must come back Agreed. The engine
// is the only refuter of a rule the verifier rejects, so these are its
// negative and positive controls.
func TestCheckRuleCatchesBrokenTemplateRule(t *testing.T) {
	r := func(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
	a := func(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
	p := func(id int) template.Sym { return template.Sym{Kind: template.KPred, ID: id} }
	c := constraint.New
	dedupProj := template.Dedup(template.Proj(a(0), template.Input(r(0))))
	proj := template.Proj(a(0), template.Input(r(0)))
	// Rule 6, LEFT JOIN to INNER JOIN, is sound only under RefAttrs.
	ljoin := template.Join(template.OpLJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1)))
	ijoin := template.Join(template.OpIJoin, a(2), a(3), template.Input(r(2)), template.Input(r(3)))
	br := brokenRule()
	cases := []struct {
		name      string
		src, dest *template.Node
		cs        *constraint.Set
		want      CheckResult
	}{
		{"drop selection under SubAttrs", br.Src, br.Dest, br.Constraints, Mismatched},
		{"drop selection", template.Sel(p(0), a(0), template.Input(r(0))), template.Input(r(0)),
			constraint.NewSet(), Mismatched},
		{"Dedup of Proj without Unique", dedupProj, proj, constraint.NewSet(), Mismatched},
		{"Dedup of Proj with Unique", dedupProj, proj, constraint.NewSet(c(constraint.Unique, r(0), a(0))), Agreed},
		{"Figure 2",
			template.InSub(a(0), template.InSub(a(0), template.Input(r(0)), template.Input(r(1))), template.Input(r(2))),
			template.InSub(a(1), template.Input(r(3)), template.Input(r(4))),
			constraint.NewSet(
				c(constraint.RelEq, r(1), r(2)),
				c(constraint.RelEq, r(1), r(4)),
				c(constraint.RelEq, r(0), r(3)),
				c(constraint.AttrsEq, a(0), a(1)),
				c(constraint.SubAttrs, a(0), template.AttrsOf(r(0))),
			), Agreed},
		{"rule 6 without RefAttrs", ljoin, ijoin,
			constraint.NewSet(
				c(constraint.RelEq, r(0), r(2)),
				c(constraint.RelEq, r(1), r(3)),
				c(constraint.AttrsEq, a(0), a(2)),
				c(constraint.AttrsEq, a(1), a(3)),
				c(constraint.NotNull, r(0), a(0)),
			), Mismatched},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := obs.Default().Counter("difftest.mismatched").Value()
			res, detail := CheckRule(tc.src, tc.dest, tc.cs, 42)
			if res != tc.want {
				t.Fatalf("CheckRule = %v, want %v (%s)", res, tc.want, detail)
			}
			if tc.want != Mismatched {
				return
			}
			if got := obs.Default().Counter("difftest.mismatched").Value(); got != before+1 {
				t.Fatalf("difftest.mismatched counter not incremented: %d -> %d", before, got)
			}
			if detail == "" {
				t.Fatal("expected a diff explanation")
			}
		})
	}
}

// TestIllTypedUnionRulesAreRejected: a size-2 discovery with Union
// templates and SPES as their prover found these two rules. Both concretise
// their source to SELECT * FROM t0 UNION ALL SELECT t0_2.c0 FROM t0 AS t0_2,
// whose arms have 2 and 1 columns; SPES proved it and the engine ran it and
// reported a mismatch. The concretiser now checks its plans, so SPES says no
// and the oracle skips the rule.
func TestIllTypedUnionRulesAreRejected(t *testing.T) {
	r := func(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
	releq := func(a, b int) constraint.C { return constraint.New(constraint.RelEq, r(a), r(b)) }
	src := template.UnionNode(template.Input(r(0)),
		template.Proj(template.Sym{Kind: template.KAttrs, ID: 0}, template.Input(r(1))))
	dest := template.UnionNode(template.Input(r(2)), template.Input(r(3)))
	for _, cs := range []*constraint.Set{
		constraint.NewSet(releq(0, 3), releq(0, 2), releq(0, 1)),
		constraint.NewSet(releq(0, 3), releq(1, 2), releq(1, 3)),
	} {
		if ok, reason := spes.VerifyRule(src, dest, cs); ok || !strings.Contains(reason, "UNION arms have 2 vs 1 columns") {
			t.Errorf("%s => %s under %s: SPES says %v (%s), want an ill-formed source", src, dest, cs, ok, reason)
		}
		if res, detail := CheckRule(src, dest, cs, 1); res != Skipped {
			t.Errorf("%s => %s under %s: oracle says %v (%s), want Skipped", src, dest, cs, res, detail)
		}
	}
}

func TestCheckResultString(t *testing.T) {
	for res, want := range map[CheckResult]string{Agreed: "agreed", Mismatched: "mismatched", Skipped: "skipped"} {
		if res.String() != want {
			t.Fatalf("%d.String() = %q, want %q", res, res.String(), want)
		}
	}
}
