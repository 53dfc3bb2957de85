package uexpr

import (
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/rules"
	"wetune/internal/template"
)

// The congruence rewrite's occurs check: [(s0.s1) = s1] makes (s0.s1) the
// representative of s1, and rewriting s1 to it would grow r1(s1) by one
// concatenation on every lemma iteration, without end.
func TestCongruenceRewriteOccursCheck(t *testing.T) {
	s0, s1 := &TVar{ID: 0}, &TVar{ID: 1}
	term := &Term{Vars: []*TVar{s0, s1}, Factors: []Factor{
		&Bracket{B: &BEq{L: &TConcat{L: s0, R: s1}, R: s1}},
		&Rel{Rel: r(1), T: s1},
	}}
	n := &normalizer{env: EmptyEnv()}
	if nt, ok := n.congruenceRewrite(term); ok {
		for _, f := range nt.Factors {
			if rel, isRel := f.(*Rel); isRel && renderFactor(rel) != "r1(t1)" {
				t.Fatalf("r1(s1) rewritten to %s", renderFactor(rel))
			}
		}
	}
}

// Beneath a projection the rewrite still applies: [a0(s0) = s0] turns r0(s0)
// into r0(a0(s0)), in one round, after which a round changes nothing.
func TestCongruenceRewriteThroughProjection(t *testing.T) {
	s0 := &TVar{ID: 0}
	e := &Mul{Fs: []Expr{
		&Bracket{B: &BEq{L: &TAttr{Attrs: a(0), T: s0}, R: s0}},
		&Rel{Rel: r(0), T: s0},
	}}
	nf, rounds, _, changed := normalizeRounds(e, EmptyEnv())
	if got := nf.Canon(); !strings.Contains(got, "r0(a0(t0))") {
		t.Fatalf("normal form %s lacks r0(a0(t0))", got)
	}
	if rounds > 2 || changed {
		t.Fatalf("normalizing took %d rounds; one more reports a change: %v", rounds, changed)
	}
}

// A representative is not rewritten inside itself: a member beneath it, one
// or two projections deep, would rebuild r0(a0(s0)) as r0(a0(a0(…))) on every
// lemma iteration, each rebuilt term folding back to the same normal form.
func TestCongruenceRewriteSettles(t *testing.T) {
	s0 := &TVar{ID: 0}
	for _, rep := range []Tuple{
		&TAttr{Attrs: a(0), T: s0},
		&TAttr{Attrs: a(1), T: &TAttr{Attrs: a(0), T: s0}},
	} {
		term := &Term{Vars: []*TVar{s0}, Factors: []Factor{
			&Bracket{B: &BEq{L: rep, R: s0}},
			&Rel{Rel: r(0), T: rep},
		}}
		n := &normalizer{env: EmptyEnv()}
		if nt, ok := n.congruenceRewrite(term); ok {
			t.Errorf("%s rewritten to %s", renderTermFixed(term), renderTermFixed(nt))
		}
	}
}

// sameTuple decides exactly what equal renderings decided before it: over
// every pair of tuples (arguments and their subterms) in the normal forms of
// each library rule's two sides.
func TestSameTupleMatchesRendering(t *testing.T) {
	pairs := 0
	for _, rule := range rules.All() {
		reps := constraint.Unify(constraint.Closure(rule.Constraints)).Reps()
		es, vs, err := Translate(rule.Src.Substitute(reps))
		if err != nil {
			continue
		}
		ed, vd, err := Translate(rule.Dest.Substitute(reps))
		if err != nil {
			continue
		}
		var tuples []Tuple
		var collect func(Tuple) Tuple
		collect = func(tt Tuple) Tuple {
			tuples = append(tuples, tt)
			return MapTuple(tt, collect, nil)
		}
		m := mapper{tuple: collect}
		m.nf(Normalize(es, EmptyEnv()))
		m.nf(Normalize(SubstTuple(ed, vd.ID, vs), EmptyEnv()))
		text := make([]string, len(tuples))
		for i, tt := range tuples {
			text[i] = tupleString(tt)
		}
		for i, x := range tuples {
			for j, y := range tuples {
				if sameTuple(x, y) != (text[i] == text[j]) {
					t.Errorf("rule %d: sameTuple(%s, %s) = %v", rule.No, text[i], text[j], sameTuple(x, y))
				}
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no tuples compared")
	}
}

// Every change simplify makes outside the lemma table is reported: a dead
// term, a negation of a positive constant, an inner squash inlined, a squash
// body that now distributes, and complementary terms merged inside a squash
// and, under a Unique key, at the top. Each normal form is built by hand, so
// that no lemma fires beside the change and hides a missing report.
func TestSimplifyReportsChangesOutsideLemmas(t *testing.T) {
	t0, t1, t2 := &TVar{ID: 0}, &TVar{ID: 1}, &TVar{ID: 2}
	term := func(vars []*TVar, fs ...Factor) *Term { return &Term{Vars: vars, Factors: fs} }
	nf := func(ts ...*Term) *NF { return &NF{Terms: ts} }
	eq := func(l, r Tuple) Factor { return &Bracket{B: &BEq{L: l, R: r}} }
	attr := func(id int, v Tuple) Tuple { return &TAttr{Attrs: a(id), T: v} }
	rel := func(id int, v Tuple) Factor { return &Rel{Rel: r(id), T: v} }
	squash := func(ts ...*Term) *NF { return nf(term(nil, &SquashNF{NF: nf(ts...)})) }
	notNull, unique := EmptyEnv(), EmptyEnv()
	notNull.NotNull[[2]template.Sym{r(0), a(0)}] = true
	unique.UniqueKey[[2]template.Sym{r(0), a(0)}] = true
	// C * M and C * not(M) for C = r1(t0), M = sum_y r0(y) * [a0(y) = a1(t0)].
	pos := term([]*TVar{t2}, rel(1, t0), rel(0, t2), eq(attr(0, t2), attr(1, t0)))
	neg := term(nil, rel(1, t0), &NotNF{NF: nf(term([]*TVar{t1}, rel(0, t1), eq(attr(0, t1), attr(1, t0))))})
	for _, c := range []struct {
		name string
		env  *Env
		in   *NF
	}{
		{"dead term", notNull, nf(term(nil, rel(0, t0), &Bracket{B: &BIsNull{T: attr(0, t0)}}))},
		{"not of a positive constant", EmptyEnv(), nf(term(nil, rel(0, t0), &NotNF{NF: nf(term(nil))}))},
		{"inner squash inlined", EmptyEnv(), squash(term([]*TVar{t1}, rel(0, t1),
			&SquashNF{NF: nf(term([]*TVar{t2}, rel(1, t2), eq(attr(0, t1), attr(0, t2))))}))},
		{"squash distributes", EmptyEnv(), squash(term(nil, rel(0, t0), rel(1, t0)))},
		{"merge inside a squash", EmptyEnv(), squash(pos, neg)},
		{"merge under Unique", unique, nf(pos, neg)},
	} {
		n := &normalizer{env: c.env, freshID: 3}
		out, changed := n.simplify(c.in)
		if before, after := c.in.Canon(), out.Canon(); !changed || before == after {
			t.Errorf("%s: %s became %s, change reported: %v", c.name, before, after, changed)
		}
	}
}
