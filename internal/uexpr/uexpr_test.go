package uexpr

import (
	"slices"
	"strings"
	"testing"

	"wetune/internal/template"
)

func r(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
func a(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
func p(id int) template.Sym { return template.Sym{Kind: template.KPred, ID: id} }

// env helpers

func envWith(mut func(*Env)) *Env {
	e := EmptyEnv()
	if mut != nil {
		mut(e)
	}
	return e
}

func addSub(e *Env, attr, from template.Sym) {
	e.SubPairs[[2]template.Sym{attr, from}] = true
	if from.Kind == template.KAttrsOf {
		rel := template.Sym{Kind: template.KRel, ID: from.ID}
		if e.AttrSource[attr] == nil {
			e.AttrSource[attr] = map[template.Sym]bool{}
		}
		e.AttrSource[attr][rel] = true
	}
}

// equalNF checks that two templates normalize to the same canonical form
// under env, with dest's output variable renamed to src's.
func equalNF(t *testing.T, src, dest *template.Node, env *Env) bool {
	t.Helper()
	es, vs, err := Translate(src)
	if err != nil {
		t.Fatalf("translate src: %v", err)
	}
	ed, vd, err := Translate(dest)
	if err != nil {
		t.Fatalf("translate dest: %v", err)
	}
	ed = SubstTuple(ed, vd.ID, vs)
	ns := Normalize(es, env).Canon()
	nd := Normalize(ed, env).Canon()
	if ns == nd {
		return true
	}
	t.Logf("src : %s", ns)
	t.Logf("dest: %s", nd)
	return false
}

func TestTranslateInput(t *testing.T) {
	e, v, err := Translate(template.Input(r(0)))
	if err != nil {
		t.Fatal(err)
	}
	rel, ok := e.(*Rel)
	if !ok || rel.Rel != r(0) {
		t.Fatalf("expr = %s", e)
	}
	if rel.T.(*TVar).ID != v.ID {
		t.Fatal("output var mismatch")
	}
}

func TestTranslateAggUnsupported(t *testing.T) {
	agg := template.AggNode(a(0), a(1), template.Sym{Kind: template.KFunc}, p(0), template.Input(r(0)))
	if _, _, err := Translate(agg); err == nil {
		t.Fatal("Agg should be unsupported by the built-in verifier")
	}
	u := template.UnionNode(template.Input(r(0)), template.Input(r(1)))
	if _, _, err := Translate(u); err == nil {
		t.Fatal("Union should be unsupported")
	}
}

func TestTranslateFigure4(t *testing.T) {
	// q_src: InSub_a(InSub_a(r0, r1), r1); the string form should contain the
	// squash of r1 applied at a(t) and the IsNull guard.
	src := template.InSub(a(0), template.InSub(a(0), template.Input(r(0)), template.Input(r(1))), template.Input(r(1)))
	e, _, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	s := e.String()
	for _, want := range []string{"r0(", "r1(", "IsNull", "||"} {
		if !strings.Contains(s, want) {
			t.Errorf("translation missing %q: %s", want, s)
		}
	}
}

// Rule 4 (Figure 2): redundant IN-subquery elimination. No extra constraints
// beyond symbol identification.
func TestRule4RedundantInSub(t *testing.T) {
	src := template.InSub(a(0), template.InSub(a(0), template.Input(r(0)), template.Input(r(1))), template.Input(r(1)))
	dest := template.InSub(a(0), template.Input(r(0)), template.Input(r(1)))
	if !equalNF(t, src, dest, EmptyEnv()) {
		t.Fatal("rule 4 should normalize to equal forms")
	}
}

// Rule 3: idempotent selection.
func TestRule3IdempotentSel(t *testing.T) {
	src := template.Sel(p(0), a(0), template.Sel(p(0), a(0), template.Input(r(0))))
	dest := template.Sel(p(0), a(0), template.Input(r(0)))
	if !equalNF(t, src, dest, EmptyEnv()) {
		t.Fatal("rule 3 should normalize to equal forms")
	}
}

// Negative control: different predicates must NOT be equal.
func TestDifferentPredicatesNotEqual(t *testing.T) {
	src := template.Sel(p(0), a(0), template.Input(r(0)))
	dest := template.Sel(p(1), a(0), template.Input(r(0)))
	if equalNF(t, src, dest, EmptyEnv()) {
		t.Fatal("different predicate symbols must not normalize equal")
	}
}

// Negative control: dropping a selection is not sound.
func TestDroppedSelNotEqual(t *testing.T) {
	src := template.Sel(p(0), a(0), template.Input(r(0)))
	dest := template.Input(r(0))
	if equalNF(t, src, dest, EmptyEnv()) {
		t.Fatal("Sel(r) must not equal r")
	}
}

// Rule 2: Dedup(Proj_a(r)) = Proj_a(r) under Unique(r, a).
func TestRule2DedupProjUnique(t *testing.T) {
	src := template.Dedup(template.Proj(a(0), template.Input(r(0))))
	dest := template.Proj(a(0), template.Input(r(0)))
	env := envWith(func(e *Env) {
		e.UniqueKey[[2]template.Sym{r(0), a(0)}] = true
	})
	if !equalNF(t, src, dest, env) {
		t.Fatal("rule 2 should hold under Unique(r,a)")
	}
	// Without Unique it must fail.
	if equalNF(t, src, dest, EmptyEnv()) {
		t.Fatal("rule 2 must not hold without Unique")
	}
}

// Rule 1: Sel_{p,a0}(Proj_{a1}(r)) = Proj_{a1}(Sel_{p,a0}(r)) under
// SubAttrs(a0, a1).
func TestRule1SelProjSwap(t *testing.T) {
	src := template.Sel(p(0), a(0), template.Proj(a(1), template.Input(r(0))))
	dest := template.Proj(a(1), template.Sel(p(0), a(0), template.Input(r(0))))
	env := envWith(func(e *Env) {
		addSub(e, a(0), a(1))
	})
	if !equalNF(t, src, dest, env) {
		t.Fatal("rule 1 should hold under SubAttrs(a0,a1)")
	}
	if equalNF(t, src, dest, EmptyEnv()) {
		t.Fatal("rule 1 must not hold without SubAttrs")
	}
}

// Rule 7: join elimination. Proj_{a2}(IJoin_{a0,a1}(r0, r1)) = Proj_{a2}(r0)
// under RefAttrs(r0,a0,r1,a1), NotNull(r0,a0), Unique(r1,a1) and attribute
// source facts.
func TestRule7JoinElimination(t *testing.T) {
	src := template.Proj(a(2), template.Join(template.OpIJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1))))
	dest := template.Proj(a(2), template.Input(r(0)))
	env := envWith(func(e *Env) {
		addSub(e, a(0), template.AttrsOf(r(0)))
		addSub(e, a(1), template.AttrsOf(r(1)))
		addSub(e, a(2), template.AttrsOf(r(0)))
		e.Ref[[4]template.Sym{r(0), a(0), r(1), a(1)}] = true
		e.NotNull[[2]template.Sym{r(0), a(0)}] = true
		e.UniqueKey[[2]template.Sym{r(1), a(1)}] = true
	})
	if !equalNF(t, src, dest, env) {
		t.Fatal("rule 7 should hold under RefAttrs+NotNull+Unique")
	}
	// Without Unique the join can duplicate rows.
	envNoU := envWith(func(e *Env) {
		addSub(e, a(0), template.AttrsOf(r(0)))
		addSub(e, a(1), template.AttrsOf(r(1)))
		addSub(e, a(2), template.AttrsOf(r(0)))
		e.Ref[[4]template.Sym{r(0), a(0), r(1), a(1)}] = true
		e.NotNull[[2]template.Sym{r(0), a(0)}] = true
	})
	if equalNF(t, src, dest, envNoU) {
		t.Fatal("rule 7 must not hold without Unique")
	}
}

// Rule 6: LJoin = IJoin under RefAttrs + NotNull.
func TestRule6LJoinToIJoin(t *testing.T) {
	src := template.Join(template.OpLJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1)))
	dest := template.Join(template.OpIJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1)))
	env := envWith(func(e *Env) {
		e.Ref[[4]template.Sym{r(0), a(0), r(1), a(1)}] = true
		e.NotNull[[2]template.Sym{r(0), a(0)}] = true
	})
	if !equalNF(t, src, dest, env) {
		t.Fatal("rule 6 should hold under RefAttrs+NotNull")
	}
	if equalNF(t, src, dest, EmptyEnv()) {
		t.Fatal("rule 6 must not hold unconditioned")
	}
}

// Rule 11: Proj_{a2}(LJoin_{a0,a1}(r0, r1)) = Proj_{a2}(r0) under
// Unique(r1, a1) when a2 projects left attributes only.
func TestRule11LJoinElimination(t *testing.T) {
	src := template.Proj(a(2), template.Join(template.OpLJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1))))
	dest := template.Proj(a(2), template.Input(r(0)))
	env := envWith(func(e *Env) {
		addSub(e, a(0), template.AttrsOf(r(0)))
		addSub(e, a(1), template.AttrsOf(r(1)))
		addSub(e, a(2), template.AttrsOf(r(0)))
		e.UniqueKey[[2]template.Sym{r(1), a(1)}] = true
	})
	if !equalNF(t, src, dest, env) {
		t.Fatal("rule 11 should hold under Unique(r1,a1)")
	}
	envNoU := envWith(func(e *Env) {
		addSub(e, a(0), template.AttrsOf(r(0)))
		addSub(e, a(1), template.AttrsOf(r(1)))
		addSub(e, a(2), template.AttrsOf(r(0)))
	})
	if equalNF(t, src, dest, envNoU) {
		t.Fatal("rule 11 must not hold without Unique")
	}
}

// Rule 15: InSub_a(r, Proj_a(r')) = r with r = r' and NotNull(r, a).
func TestRule15SelfInSubElimination(t *testing.T) {
	// After unification r' -> r, a' -> a.
	src := template.InSub(a(0), template.Input(r(0)), template.Proj(a(0), template.Input(r(0))))
	dest := template.Input(r(0))
	env := envWith(func(e *Env) {
		e.NotNull[[2]template.Sym{r(0), a(0)}] = true
		addSub(e, a(0), template.AttrsOf(r(0)))
	})
	if !equalNF(t, src, dest, env) {
		t.Fatal("rule 15 should hold for the self IN-subquery")
	}
}

// Rule 24: IN-subquery to inner join under Unique(r1, a1).
func TestRule24InSubToJoin(t *testing.T) {
	src := template.Proj(a(2), template.InSub(a(0), template.Input(r(0)), template.Proj(a(1), template.Input(r(1)))))
	dest := template.Proj(a(2), template.Join(template.OpIJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1))))
	env := envWith(func(e *Env) {
		addSub(e, a(0), template.AttrsOf(r(0)))
		addSub(e, a(1), template.AttrsOf(r(1)))
		addSub(e, a(2), template.AttrsOf(r(0)))
		e.UniqueKey[[2]template.Sym{r(1), a(1)}] = true
	})
	if !equalNF(t, src, dest, env) {
		t.Fatal("rule 24 should hold under Unique(r1,a1)")
	}
	envNoU := envWith(func(e *Env) {
		addSub(e, a(0), template.AttrsOf(r(0)))
		addSub(e, a(1), template.AttrsOf(r(1)))
		addSub(e, a(2), template.AttrsOf(r(0)))
	})
	if equalNF(t, src, dest, envNoU) {
		t.Fatal("rule 24 must not hold without Unique")
	}
}

// Rule 22: join commutativity under a projection.
func TestRule22JoinCommute(t *testing.T) {
	src := template.Proj(a(2), template.Join(template.OpIJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1))))
	dest := template.Proj(a(2), template.Join(template.OpIJoin, a(1), a(0), template.Input(r(1)), template.Input(r(0))))
	env := envWith(func(e *Env) {
		addSub(e, a(0), template.AttrsOf(r(0)))
		addSub(e, a(1), template.AttrsOf(r(1)))
		addSub(e, a(2), template.AttrsOf(r(0)))
		e.NotNull[[2]template.Sym{r(0), a(0)}] = true
		e.NotNull[[2]template.Sym{r(1), a(1)}] = true
	})
	if !equalNF(t, src, dest, env) {
		t.Fatal("rule 22 (join commute under Proj) should hold")
	}
}

func TestSubstTupleShadowing(t *testing.T) {
	// sum over v shadows substitution of v.
	v := &TVar{ID: 1}
	body := &Rel{Rel: r(0), T: v}
	sum := &Sum{Vars: []*TVar{v}, E: body}
	got := SubstTuple(sum, 1, &TVar{ID: 9})
	if got.(*Sum).E.(*Rel).T.(*TVar).ID != 1 {
		t.Fatal("bound variable must not be substituted")
	}

	// A Term inside a NotNF that rebinds v keeps v, and only v: a
	// simultaneous substitution still replaces the other variables there.
	w := &TVar{ID: 2}
	inner := &NF{Terms: []*Term{{Vars: []*TVar{v}, Factors: []Factor{
		&Rel{Rel: r(0), T: v},
		&Bracket{B: &BEq{L: &TAttr{Attrs: a(0), T: v}, R: &TAttr{Attrs: a(0), T: w}}},
	}}}}
	fs := []Factor{&Rel{Rel: r(1), T: v}, &NotNF{NF: inner}}
	out := SubstFactors(fs, map[int]Tuple{1: &TVar{ID: 8}, 2: &TVar{ID: 9}})
	want := "(not(sum{s0}([a0(s0) = a0(t9)] * r0(s0))) * r1(t8))"
	if got := renderTermFixed(&Term{Factors: out}); got != want {
		t.Errorf("Term binder: got %s, want %s", got, want)
	}
	only := SubstFactors(fs[1:], map[int]Tuple{1: &TVar{ID: 8}})
	if only[0] != fs[1] {
		t.Error("a substitution of a rebound variable alone must leave the term as it is")
	}
}

// TestCanonNamesNestedBindersApart: a binder inside a term is named after
// the ones in scope, so an inner reference to the outer variable does not
// read like one to the inner variable.
func TestCanonNamesNestedBindersApart(t *testing.T) {
	t1, t2 := &TVar{ID: 1}, &TVar{ID: 2}
	nf := func(last *TVar) *NF {
		inner := &NF{Terms: []*Term{{Vars: []*TVar{t2}, Factors: []Factor{&Rel{Rel: r(1), T: t2}, &Rel{Rel: r(2), T: last}}}}}
		return &NF{Terms: []*Term{{Vars: []*TVar{t1}, Factors: []Factor{&Rel{Rel: r(0), T: t1}, &SquashNF{NF: inner}}}}}
	}
	outer, same := nf(t1).Canon(), nf(t2).Canon()
	if outer == same {
		t.Errorf("sum_{t1} r0(t1) * ||sum_{t2} r1(t2) * r2(t1)|| and the same with r2(t2) both render %s", outer)
	}
	if want := "sum{s0}(r0(s0) * ||sum{s1}(r1(s1) * r2(s0))||)"; outer != want {
		t.Errorf("got %s, want %s", outer, want)
	}
}

func TestNormalizeConstants(t *testing.T) {
	env := EmptyEnv()
	if got := Normalize(Zero, env).Canon(); got != "0" {
		t.Errorf("0 -> %q", got)
	}
	if got := Normalize(&Mul{Fs: []Expr{One, One}}, env).Canon(); got != "()" {
		t.Errorf("1*1 -> %q", got)
	}
	if got := Normalize(&Not{E: Zero}, env).Canon(); got != "()" {
		t.Errorf("not(0) -> %q", got)
	}
	if got := Normalize(&Squash{E: Zero}, env).Canon(); got != "0" {
		t.Errorf("||0|| -> %q", got)
	}
	if got := Normalize(&Not{E: One}, env).Canon(); got != "0" {
		t.Errorf("not(1) -> %q", got)
	}
}

func TestNormalizeAlphaEquivalence(t *testing.T) {
	out := &TVar{ID: 100}
	// sum_x r(x)*[t=a(x)], bound as x = t<id>.
	single := func(id int) Expr {
		x := &TVar{ID: id}
		return &Sum{Vars: []*TVar{x}, E: &Mul{Fs: []Expr{
			&Rel{Rel: r(0), T: x},
			&Bracket{B: &BEq{L: out, R: &TAttr{Attrs: a(0), T: x}}},
		}}}
	}
	// A six-table join chain: sum{x0..x5} r0(x0)*...*r5(x5) *
	// [a0(x0) = t] * [a1(x_{i-1}) = a2(x_i)], its binders listed in order
	// or reversed.
	chain := func(reversed bool) Expr {
		xs := make([]*TVar, 6)
		fs := make([]Expr, 0, 12)
		for i := range xs {
			xs[i] = &TVar{ID: i + 1}
			fs = append(fs, &Rel{Rel: r(i), T: xs[i]})
			if i > 0 {
				fs = append(fs, &Bracket{B: &BEq{L: &TAttr{Attrs: a(1), T: xs[i-1]}, R: &TAttr{Attrs: a(2), T: xs[i]}}})
			}
		}
		fs = append(fs, &Bracket{B: &BEq{L: &TAttr{Attrs: a(0), T: xs[0]}, R: out}})
		vars := slices.Clone(xs)
		if reversed {
			slices.Reverse(vars)
		}
		return &Sum{Vars: vars, E: &Mul{Fs: fs}}
	}
	env := EmptyEnv()
	for _, c := range []struct {
		name   string
		e1, e2 Expr
	}{
		{"renamed binder", single(1), single(7)},
		{"reversed six-binder chain", chain(false), chain(true)},
	} {
		if c1, c2 := Normalize(c.e1, env).Canon(), Normalize(c.e2, env).Canon(); c1 != c2 {
			t.Errorf("%s: alpha-equivalent sums render differently:\n  %s\n  %s", c.name, c1, c2)
		}
	}
}
