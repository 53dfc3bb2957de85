package smt

import (
	"context"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/fol"
	"wetune/internal/obs"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

func rsym(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
func asym(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
func psym(id int) template.Sym { return template.Sym{Kind: template.KPred, ID: id} }

func v(id int) *uexpr.TVar { return &uexpr.TVar{ID: id} }

func solve(t *testing.T, f fol.Formula) Result {
	t.Helper()
	res, _ := Solve(f, DefaultOptions())
	return res
}

func TestEUFTransitivityConflict(t *testing.T) {
	x, y, z := v(1), v(2), v(3)
	f := fol.MkAnd(
		&fol.TupleEq{L: x, R: y},
		&fol.TupleEq{L: y, R: z},
		&fol.Not{F: &fol.TupleEq{L: x, R: z}},
	)
	if got := solve(t, f); got != Unsat {
		t.Fatalf("x=y & y=z & x!=z -> %v, want unsat", got)
	}
}

func TestPredicateCongruenceConflict(t *testing.T) {
	x, y := v(1), v(2)
	f := fol.MkAnd(
		&fol.TupleEq{L: x, R: y},
		&fol.PredApp{Pred: psym(0), T: x},
		&fol.Not{F: &fol.PredApp{Pred: psym(0), T: y}},
	)
	if got := solve(t, f); got != Unsat {
		t.Fatalf("congruence conflict -> %v, want unsat", got)
	}
}

func TestAttrCongruence(t *testing.T) {
	x, y := v(1), v(2)
	// x = y but a(x) != a(y) is inconsistent by congruence.
	f := fol.MkAnd(
		&fol.TupleEq{L: x, R: y},
		&fol.Not{F: &fol.TupleEq{
			L: &uexpr.TAttr{Attrs: asym(0), T: x},
			R: &uexpr.TAttr{Attrs: asym(0), T: y},
		}},
	)
	if got := solve(t, f); got != Unsat {
		t.Fatalf("attr congruence -> %v, want unsat", got)
	}
}

func TestSatisfiableFormula(t *testing.T) {
	x, y := v(1), v(2)
	f := fol.MkAnd(
		&fol.PredApp{Pred: psym(0), T: x},
		&fol.Not{F: &fol.PredApp{Pred: psym(0), T: y}},
	)
	if got := solve(t, f); got != Sat {
		t.Fatalf("satisfiable formula -> %v, want sat", got)
	}
}

func TestUniversalInstantiationConflict(t *testing.T) {
	// forall t. r1(t) = r2(t); r1(c) > 0; r2(c) = 0.
	c := v(9)
	tv := v(1)
	f := fol.MkAnd(
		&fol.Forall{Vars: []*uexpr.TVar{tv}, Body: &fol.IntEq{
			L: &fol.RelApp{Rel: rsym(1), T: tv},
			R: &fol.RelApp{Rel: rsym(2), T: tv},
		}},
		&fol.IntGt0{T: &fol.RelApp{Rel: rsym(1), T: c}},
		&fol.IntEq{L: &fol.RelApp{Rel: rsym(2), T: c}, R: &fol.IntConst{N: 0}},
	)
	if got := solve(t, f); got != Unsat {
		t.Fatalf("RelEq instantiation -> %v, want unsat", got)
	}
}

func TestNotNullConstraintConflict(t *testing.T) {
	fv := fol.NewFreshVars(100)
	nn, err := fol.ConstraintToFOL(constraint.New(constraint.NotNull, rsym(0), asym(0)), fv)
	if err != nil {
		t.Fatal(err)
	}
	c := v(9)
	f := fol.MkAnd(
		nn,
		&fol.IntGt0{T: &fol.RelApp{Rel: rsym(0), T: c}},
		&fol.IsNull{T: &uexpr.TAttr{Attrs: asym(0), T: c}},
	)
	if got := solve(t, f); got != Unsat {
		t.Fatalf("NotNull conflict -> %v, want unsat", got)
	}
}

func TestUniqueLe1Conflict(t *testing.T) {
	fv := fol.NewFreshVars(100)
	uq, err := fol.ConstraintToFOL(constraint.New(constraint.Unique, rsym(0), asym(0)), fv)
	if err != nil {
		t.Fatal(err)
	}
	c := v(9)
	// r(c) <= 1 (from Unique) contradicts r(c) >= 2 (NOT r(c) <= 1).
	f := fol.MkAnd(
		uq,
		&fol.Not{F: &fol.IntLe1{T: &fol.RelApp{Rel: rsym(0), T: c}}},
	)
	if got := solve(t, f); got != Unsat {
		t.Fatalf("Unique multiplicity conflict -> %v, want unsat", got)
	}
}

func TestProveValidPredEqRewrite(t *testing.T) {
	// Hypothesis: PredEq(p0, p1). Goal: forall t.
	// r(t)*ite(p0(a(t)),1,0) = r(t)*ite(p1(a(t)),1,0).
	fv := fol.NewFreshVars(100)
	hyp, err := fol.ConstraintToFOL(constraint.New(constraint.PredEq, psym(0), psym(1)), fv)
	if err != nil {
		t.Fatal(err)
	}
	tv := v(1)
	mk := func(p template.Sym) fol.Term {
		return &fol.MulT{Fs: []fol.Term{
			&fol.RelApp{Rel: rsym(0), T: tv},
			&fol.ITE{
				Cond: &fol.PredApp{Pred: p, T: &uexpr.TAttr{Attrs: asym(0), T: tv}},
				Then: &fol.IntConst{N: 1},
				Else: &fol.IntConst{N: 0},
			},
		}}
	}
	goal := &fol.Forall{Vars: []*uexpr.TVar{tv}, Body: &fol.IntEq{L: mk(psym(0)), R: mk(psym(1))}}
	ok, _ := ProveValid(hyp, goal, DefaultOptions())
	if !ok {
		t.Fatal("PredEq rewrite should be provable")
	}
	// Without the hypothesis it must not be provable.
	ok, _ = ProveValid(&fol.TrueF{}, goal, DefaultOptions())
	if ok {
		t.Fatal("goal should not be provable without PredEq")
	}
}

func TestProveValidSelIdempotent(t *testing.T) {
	// Goal: r(t) * [p(a(t))] * [p(a(t))] = r(t) * [p(a(t))] — valid with no
	// hypotheses since ite is 0/1.
	tv := v(1)
	ite := &fol.ITE{
		Cond: &fol.PredApp{Pred: psym(0), T: &uexpr.TAttr{Attrs: asym(0), T: tv}},
		Then: &fol.IntConst{N: 1},
		Else: &fol.IntConst{N: 0},
	}
	r := &fol.RelApp{Rel: rsym(0), T: tv}
	goal := &fol.Forall{Vars: []*uexpr.TVar{tv}, Body: &fol.IntEq{
		L: &fol.MulT{Fs: []fol.Term{r, ite, ite}},
		R: &fol.MulT{Fs: []fol.Term{r, ite}},
	}}
	ok, _ := ProveValid(&fol.TrueF{}, goal, DefaultOptions())
	if !ok {
		t.Fatal("idempotent bracket should be provable")
	}
}

func TestUnsoundDropSelNotProvable(t *testing.T) {
	// Goal: r(t) * [p(a(t))] = r(t) must NOT be provable.
	tv := v(1)
	ite := &fol.ITE{
		Cond: &fol.PredApp{Pred: psym(0), T: &uexpr.TAttr{Attrs: asym(0), T: tv}},
		Then: &fol.IntConst{N: 1},
		Else: &fol.IntConst{N: 0},
	}
	r := &fol.RelApp{Rel: rsym(0), T: tv}
	goal := &fol.Forall{Vars: []*uexpr.TVar{tv}, Body: &fol.IntEq{
		L: &fol.MulT{Fs: []fol.Term{r, ite}},
		R: r,
	}}
	ok, _ := ProveValid(&fol.TrueF{}, goal, DefaultOptions())
	if ok {
		t.Fatal("dropping a selection must not verify")
	}
}

func TestBudgetExhaustionReturnsUnknown(t *testing.T) {
	// A large satisfiable formula with a tiny node budget.
	var fs []fol.Formula
	for i := 0; i < 12; i++ {
		fs = append(fs, fol.MkOr(
			&fol.PredApp{Pred: psym(i), T: v(i)},
			&fol.PredApp{Pred: psym(i + 100), T: v(i + 100)},
		))
	}
	reg := obs.NewRegistry()
	res, st := Solve(fol.MkAnd(fs...), Options{MaxNodes: 2, InstRounds: 1, MaxTermDepth: 2, Metrics: reg})
	if res == Unsat {
		t.Fatal("budget exhaustion must not report unsat")
	}
	unknownBy := func(c Stop) int64 { return reg.Counter(metricUnknownBy + c.String()).Value() }
	if st.StoppedBy != StopNodes || unknownBy(StopNodes) != 1 || unknownBy(StopDeadline) != 0 {
		t.Errorf("budget-caused unknown: StoppedBy=%s nodes=%d deadline=%d", st.StoppedBy,
			unknownBy(StopNodes), unknownBy(StopDeadline))
	}

	// The same search stopped by the clock says so.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, st = Solve(fol.MkAnd(fs...), Options{MaxNodes: 1 << 20, InstRounds: 1, MaxTermDepth: 2, Ctx: ctx, Metrics: reg})
	if res != Unknown || st.StoppedBy != StopDeadline || unknownBy(StopDeadline) != 1 {
		t.Errorf("clock-caused unknown: %s StoppedBy=%s deadline=%d", res, st.StoppedBy, unknownBy(StopDeadline))
	}
	if total := reg.Counter(metricOutcome + "unknown").Value(); total != 2 {
		t.Errorf("smt_outcome_unknown = %d, want both causes counted", total)
	}
	for c := StopNone; int(c) < len(stopNames); c++ {
		if c != StopNodes && c != StopDeadline && unknownBy(c) != 0 {
			t.Errorf("smt_outcome_unknown_%s = %d, want 0", c, unknownBy(c))
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	x := v(1)
	_, st := Solve(&fol.PredApp{Pred: psym(0), T: x}, DefaultOptions())
	if st.Nodes == 0 {
		t.Error("expected nonzero node count")
	}
}
