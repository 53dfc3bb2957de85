package uexpr

import (
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/rules"
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
// into r0(a0(s0)), the nested projections it builds folding back.
func TestCongruenceRewriteThroughProjection(t *testing.T) {
	s0 := &TVar{ID: 0}
	e := &Mul{Fs: []Expr{
		&Bracket{B: &BEq{L: &TAttr{Attrs: a(0), T: s0}, R: s0}},
		&Rel{Rel: r(0), T: s0},
	}}
	if got := Normalize(e, EmptyEnv()).Canon(); !strings.Contains(got, "r0(a0(t0))") {
		t.Fatalf("normal form %s lacks r0(a0(t0))", got)
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
