package verify

import (
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/template"
)

func r(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
func a(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
func p(id int) template.Sym { return template.Sym{Kind: template.KPred, ID: id} }

// figure2Rule builds the full rule of the paper's Figure 2 with distinct
// symbols on each side, tied together by constraints — exactly as the rule
// enumerator would produce it.
func figure2Rule() (*template.Node, *template.Node, *constraint.Set) {
	src := template.InSub(a(0), template.InSub(a(0), template.Input(r(0)), template.Input(r(1))), template.Input(r(2)))
	dest := template.InSub(a(1), template.Input(r(3)), template.Input(r(4)))
	cs := constraint.NewSet(
		constraint.New(constraint.RelEq, r(1), r(2)),
		constraint.New(constraint.RelEq, r(1), r(4)),
		constraint.New(constraint.RelEq, r(0), r(3)),
		constraint.New(constraint.AttrsEq, a(0), a(1)),
		constraint.New(constraint.SubAttrs, a(0), template.AttrsOf(r(0))),
	)
	return src, dest, cs
}

func TestVerifyFigure2Rule(t *testing.T) {
	src, dest, cs := figure2Rule()
	rep := Verify(src, dest, cs)
	if rep.Outcome != Verified {
		t.Fatalf("Figure 2 rule: %v (%s)", rep.Outcome, rep.Detail)
	}
	if rep.Method != MethodAlgebraic {
		t.Errorf("expected algebraic proof, got %v", rep.Method)
	}
}

func TestVerifyFigure2WithoutRelEqFails(t *testing.T) {
	src, dest, _ := figure2Rule()
	// Drop the r1 = r2 constraint: the two inner subqueries differ and the
	// rule is incorrect.
	cs := constraint.NewSet(
		constraint.New(constraint.RelEq, r(1), r(4)),
		constraint.New(constraint.RelEq, r(0), r(3)),
		constraint.New(constraint.AttrsEq, a(0), a(1)),
	)
	rep := Verify(src, dest, cs)
	if rep.Outcome == Verified {
		t.Fatal("under-constrained Figure 2 rule must not verify")
	}
}

func TestVerifyRule2ViaConstraints(t *testing.T) {
	// Dedup(Proj_a0(r0)) -> Proj_a1(r1) under RelEq, AttrsEq, Unique.
	src := template.Dedup(template.Proj(a(0), template.Input(r(0))))
	dest := template.Proj(a(1), template.Input(r(1)))
	cs := constraint.NewSet(
		constraint.New(constraint.RelEq, r(0), r(1)),
		constraint.New(constraint.AttrsEq, a(0), a(1)),
		constraint.New(constraint.Unique, r(0), a(0)),
	)
	rep := Verify(src, dest, cs)
	if rep.Outcome != Verified {
		t.Fatalf("rule 2: %v (%s)", rep.Outcome, rep.Detail)
	}
	// Congruence: Unique stated on the destination symbols must also work,
	// via the constraint closure.
	cs2 := constraint.NewSet(
		constraint.New(constraint.RelEq, r(0), r(1)),
		constraint.New(constraint.AttrsEq, a(0), a(1)),
		constraint.New(constraint.Unique, r(1), a(1)),
	)
	rep2 := Verify(src, dest, cs2)
	if rep2.Outcome != Verified {
		t.Fatalf("rule 2 with dest-side Unique: %v (%s)", rep2.Outcome, rep2.Detail)
	}
	// Without Unique: rejected.
	cs3 := constraint.NewSet(
		constraint.New(constraint.RelEq, r(0), r(1)),
		constraint.New(constraint.AttrsEq, a(0), a(1)),
	)
	if rep3 := Verify(src, dest, cs3); rep3.Outcome == Verified {
		t.Fatal("rule 2 without Unique must not verify")
	}
}

func TestVerifyUnsupportedOperators(t *testing.T) {
	agg := template.AggNode(a(0), a(1), template.Sym{Kind: template.KFunc}, p(0), template.Input(r(0)))
	rep := Verify(agg, agg.Clone(), constraint.NewSet())
	if rep.Outcome != Unsupported {
		t.Fatalf("Agg rule should be Unsupported, got %v", rep.Outcome)
	}
}

func TestVerifySMTFallbackPredEq(t *testing.T) {
	// Sel_{p0,a0}(r0) = Sel_{p1,a1}(r1) under RelEq/AttrsEq/PredEq: the
	// algebraic path already proves this via unification; force the SMT path
	// by disabling it.
	src := template.Sel(p(0), a(0), template.Input(r(0)))
	dest := template.Sel(p(1), a(1), template.Input(r(1)))
	cs := constraint.NewSet(
		constraint.New(constraint.RelEq, r(0), r(1)),
		constraint.New(constraint.AttrsEq, a(0), a(1)),
		constraint.New(constraint.PredEq, p(0), p(1)),
	)
	rep := VerifyOpts(src, dest, cs, Options{SMT: DefaultOptions().SMT, SkipAlgebraic: true})
	if rep.Outcome != Verified || rep.Method != MethodSMT {
		t.Fatalf("SMT fallback: %v via %v (%s)", rep.Outcome, rep.Method, rep.Detail)
	}
}

func TestVerifySMTRejectsWrongRule(t *testing.T) {
	// Sel_{p0,a0}(r0) = r0: wrong.
	src := template.Sel(p(0), a(0), template.Input(r(0)))
	dest := template.Input(r(0))
	rep := VerifyOpts(src, dest, constraint.NewSet(), Options{SMT: DefaultOptions().SMT})
	if rep.Outcome == Verified {
		t.Fatal("dropping a selection must not verify")
	}
}

func TestVerifyAlgebraicOnlyOption(t *testing.T) {
	src, dest, cs := figure2Rule()
	rep := VerifyOpts(src, dest, cs, Options{SkipSMT: true})
	if rep.Outcome != Verified {
		t.Fatalf("algebraic-only: %v", rep.Outcome)
	}
}

func TestVerifyLJoinToIJoinRule6(t *testing.T) {
	src := template.Join(template.OpLJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1)))
	dest := template.Join(template.OpIJoin, a(2), a(3), template.Input(r(2)), template.Input(r(3)))
	cs := constraint.NewSet(
		constraint.New(constraint.RelEq, r(0), r(2)),
		constraint.New(constraint.RelEq, r(1), r(3)),
		constraint.New(constraint.AttrsEq, a(0), a(2)),
		constraint.New(constraint.AttrsEq, a(1), a(3)),
		constraint.New(constraint.RefAttrs, r(0), a(0), r(1), a(1)),
		constraint.New(constraint.NotNull, r(0), a(0)),
	)
	rep := Verify(src, dest, cs)
	if rep.Outcome != Verified {
		t.Fatalf("rule 6: %v (%s)", rep.Outcome, rep.Detail)
	}
	// Dropping RefAttrs must break it (internal/difftest's
	// TestCheckRuleCatchesBrokenTemplateRule runs this weakened rule).
	cs2 := constraint.NewSet(
		constraint.New(constraint.RelEq, r(0), r(2)),
		constraint.New(constraint.RelEq, r(1), r(3)),
		constraint.New(constraint.AttrsEq, a(0), a(2)),
		constraint.New(constraint.AttrsEq, a(1), a(3)),
		constraint.New(constraint.NotNull, r(0), a(0)),
	)
	if rep2 := Verify(src, dest, cs2); rep2.Outcome == Verified {
		t.Fatal("rule 6 without RefAttrs must not verify")
	}
}
