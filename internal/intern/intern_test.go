package intern

import (
	"fmt"
	"testing"

	"wetune/internal/fol"
	"wetune/internal/obs"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

func attrsSym(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
func relSym(id int) template.Sym   { return template.Sym{Kind: template.KRel, ID: id} }
func predSym(id int) template.Sym  { return template.Sym{Kind: template.KPred, ID: id} }

// TestTupleDedup: structurally equal tuples built through the pool are the
// same pointer, and pool keys match the legacy tupleKey formats byte for
// byte (the solver sorts ground terms by these keys, so any drift would
// change instantiation order and break warm/cold determinism).
func TestTupleDedup(t *testing.T) {
	p := NewPool()
	a1 := p.MkAttr(attrsSym(3), p.MkVar(7))
	a2 := p.MkAttr(attrsSym(3), p.MkVar(7))
	if a1 != a2 {
		t.Fatalf("equal tuples not deduped: %p vs %p", a1, a2)
	}
	c := p.MkConcat(a1, p.MkVar(9))

	wantKeys := map[uexpr.Tuple]string{
		p.MkVar(7): "t7",
		a1:         fmt.Sprintf("%s(%s)", attrsSym(3), "t7"),
		c:          fmt.Sprintf("(%s.%s)", p.TupleKey(a1), "t9"),
	}
	for tu, want := range wantKeys {
		if got := p.TupleKey(tu); got != want {
			t.Errorf("TupleKey = %q, want %q", got, want)
		}
	}
	// Legacy tupleDepth semantics: variables are depth 0.
	if d := p.TupleDepth(c); d != 2 {
		t.Errorf("TupleDepth(concat(attr(var),var)) = %d, want 2", d)
	}
}

// TestTupleCanonicalize: an externally built tuple canonicalizes to the
// pooled pointer, and canonicalizing a pooled tuple is the identity.
func TestTupleCanonicalize(t *testing.T) {
	p := NewPool()
	pooled := p.MkAttr(attrsSym(1), p.MkVar(2))
	outside := &uexpr.TAttr{Attrs: attrsSym(1), T: &uexpr.TVar{ID: 2}}
	if got := p.Tuple(outside); got != pooled {
		t.Fatalf("canonicalized tuple is not the pooled pointer")
	}
	if got := p.Tuple(pooled); got != pooled {
		t.Fatalf("canonicalizing a pooled tuple must be the identity")
	}
}

// TestFormulaDedup: equal formulas intern to the same pointer across all
// constructors, including n-ary And/Or (whose flattening must match
// fol.MkAnd/MkOr) and quantifiers.
func TestFormulaDedup(t *testing.T) {
	p := NewPool()
	v := p.MkVar(1)
	w := p.MkVar(2)

	eq1 := p.MkTupleEq(v, w)
	eq2 := p.MkTupleEq(v, w)
	if eq1 != eq2 {
		t.Fatalf("TupleEq not deduped")
	}
	pa := p.MkPredApp(predSym(0), v)
	and1 := p.MkAnd(eq1, pa)
	and2 := p.MkAnd(eq1, pa)
	if and1 != and2 {
		t.Fatalf("And not deduped")
	}
	// Nested Ands flatten exactly like fol.MkAnd, so both spellings intern
	// to the same node.
	if p.MkAnd(p.MkAnd(eq1, pa)) != and1 {
		t.Errorf("And flattening differs from fol.MkAnd")
	}
	if p.MkAnd(eq1) != eq1 {
		t.Errorf("single-element MkAnd should collapse to the element")
	}
	if p.MkAnd() != p.True() {
		t.Errorf("empty MkAnd should be True")
	}
	if p.MkOr() != p.False() {
		t.Errorf("empty MkOr should be False")
	}

	tv := &uexpr.TVar{ID: 5}
	f1 := p.MkForall([]*uexpr.TVar{tv}, eq1)
	f2 := p.MkForall([]*uexpr.TVar{{ID: 5}}, eq1)
	if f1 != f2 {
		t.Fatalf("Forall with equal binders not deduped")
	}

	r1 := p.MkIntGt0(p.MkRelApp(relSym(0), v))
	r2 := p.MkIntGt0(p.MkRelApp(relSym(0), v))
	if r1 != r2 {
		t.Fatalf("IntGt0(RelApp) not deduped")
	}
}

// TestFormulaCanonicalize: an externally built formula tree canonicalizes to
// the same pointers as pool-constructed ones, and pooled formulas pass
// through unchanged (the O(1) fast path SolveNNF relies on).
func TestFormulaCanonicalize(t *testing.T) {
	p := NewPool()
	outside := fol.Formula(&fol.And{Fs: []fol.Formula{
		&fol.IntGt0{T: &fol.RelApp{Rel: relSym(1), T: &uexpr.TVar{ID: 3}}},
		&fol.Not{F: &fol.IsNull{T: &uexpr.TVar{ID: 3}}},
	}})
	pooled := p.MkAnd(
		p.MkIntGt0(p.MkRelApp(relSym(1), p.MkVar(3))),
		p.MkNot(p.MkIsNull(p.MkVar(3))),
	)
	if got := p.Formula(outside); got != pooled {
		t.Fatalf("canonicalized formula is not the pooled pointer")
	}
	if got := p.Formula(pooled); got != pooled {
		t.Fatalf("canonicalizing a pooled formula must be the identity")
	}
}

// TestSubstFormula: substitution rebuilds only the changed spine, returns
// the identical pointer for unchanged subtrees, and respects quantifier
// shadowing.
func TestSubstFormula(t *testing.T) {
	p := NewPool()
	v3, v4, v9 := p.MkVar(3), p.MkVar(4), p.MkVar(9)
	eq34 := p.MkTupleEq(v3, v4)
	isn4 := p.MkIsNull(v4)
	f := p.MkAnd(eq34, isn4)

	got := p.SubstFormula(f, 3, v9)
	want := p.MkAnd(p.MkTupleEq(v9, v4), isn4)
	if got != want {
		t.Fatalf("SubstFormula rebuilt wrong node")
	}
	// Untouched id: identical pointer back.
	if p.SubstFormula(f, 42, v9) != f {
		t.Fatalf("substituting an absent id must return the same pointer")
	}
	// Shadowing: a binder for the id protects its body.
	q := p.MkExists([]*uexpr.TVar{{ID: 3}}, eq34)
	if p.SubstFormula(q, 3, v9) != q {
		t.Fatalf("substitution must not cross a binder for the same id")
	}
	// Memoized: same (node, id, repl) is a map hit returning the same value.
	if p.SubstFormula(f, 3, v9) != got {
		t.Fatalf("memoized substitution returned a different node")
	}
}

// TestMetricsFlush: FlushMetrics publishes cumulative deltas plus the pool
// size gauge into the registry the solver hands it.
func TestMetricsFlush(t *testing.T) {
	p := NewPool()
	reg := obs.NewRegistry()
	p.MkTupleEq(p.MkVar(1), p.MkVar(2))
	p.MkTupleEq(p.MkVar(1), p.MkVar(2)) // hits on all three nodes
	p.FlushMetrics(reg)
	hits := reg.Counter(MetricHits).Value()
	nodes := reg.Counter(MetricNodes).Value()
	if hits != 3 {
		t.Errorf("intern_hits = %d, want 3", hits)
	}
	if nodes != 5 { // v1, v2, the equality, plus the pool's True/False singletons
		t.Errorf("intern_nodes = %d, want 5", nodes)
	}
	if g := reg.Gauge(MetricPoolNodes).Value(); g != int64(p.Size()) {
		t.Errorf("intern_pool_nodes gauge = %d, want %d", g, p.Size())
	}
	// A second flush publishes only what happened since the first.
	p.MkVar(3)
	p.FlushMetrics(reg)
	if got := reg.Counter(MetricNodes).Value(); got != nodes+1 {
		t.Errorf("second flush: intern_nodes = %d, want %d", got, nodes+1)
	}
	if got := reg.Counter(MetricHits).Value(); got != hits {
		t.Errorf("second flush: intern_hits = %d, want %d", got, hits)
	}
}

// TestJunctionHitAllocatesNothing: MkAnd and MkOr flatten into pool-owned
// scratch, so re-deriving a conjunction or disjunction the pool already holds
// — what quantifier instantiation does most — is a probe and nothing else.
func TestJunctionHitAllocatesNothing(t *testing.T) {
	p := NewPool()
	a := p.MkPredApp(predSym(0), p.MkVar(1))
	b := p.MkPredApp(predSym(1), p.MkVar(1))
	c := p.MkIsNull(p.MkVar(2))
	and, or := p.MkAnd(a, b, c), p.MkOr(a, b, c)
	nested := p.MkOr(a, p.MkAnd(b, c))
	var got [4]fol.Formula
	allocs := testing.AllocsPerRun(100, func() {
		got[0] = p.MkAnd(a, p.True(), p.MkAnd(b, c)) // flattens to a, b, c
		got[1] = p.MkOr(p.MkOr(a, b), p.False(), c)
		got[2] = p.MkOr(a, p.MkAnd(b, c))
		got[3] = p.MkAnd(a) // singleton unwrapped
	})
	if got != [4]fol.Formula{and, or, nested, a} {
		t.Errorf("hits returned other nodes: %v", got)
	}
	if allocs != 0 {
		t.Errorf("MkAnd/MkOr of interned operands: %v allocs per run, want 0", allocs)
	}
}
