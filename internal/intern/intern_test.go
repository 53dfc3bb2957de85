package intern

import (
	"fmt"
	"math/rand"
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
	// Repeated: hash-consing hands back the node the first call made.
	if p.SubstFormula(f, 3, v9) != got {
		t.Fatalf("repeated substitution returned a different node")
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

// TestPooledIdentityMapAllocatesNothing: a deep walk over a pooled formula,
// rebuilding through the pool, returns the input pointer and allocates
// nothing; so does a substitution that changes nothing (variable 1 occurs
// only bound in it).
func TestPooledIdentityMapAllocatesNothing(t *testing.T) {
	p := NewPool()
	f := randFormula(rand.New(rand.NewSource(1)), p, 4)
	var m fol.Mapper
	m = fol.Mapper{
		Formula: func(g fol.Formula) fol.Formula { return m.MapFormula(g, p) },
		Term:    func(u fol.Term) fol.Term { return m.MapTerm(u, p) },
		Tuple:   func(u uexpr.Tuple) uexpr.Tuple { return u },
	}
	repl := p.MkVar(9)
	p.SubstFormula(f, 1, repl)
	allocs := testing.AllocsPerRun(100, func() {
		if m.MapFormula(f, p) != f {
			t.Fatal("identity map copied the formula")
		}
		p.SubstFormula(f, 1, repl)
	})
	if allocs != 0 {
		t.Errorf("pooled identity map: %v allocs per run, want 0", allocs)
	}
}

// refSubstFormula is the substitution the traversal replaced, with its
// per-kind switches and without the memo: it rebuilds every changed node
// through the pool and stops at a quantifier that binds id.
func refSubstFormula(p *Pool, f fol.Formula, id int, repl uexpr.Tuple) fol.Formula {
	sf := func(g fol.Formula) fol.Formula { return refSubstFormula(p, g, id, repl) }
	sm := func(u fol.Term) fol.Term { return refSubstTerm(p, u, id, repl) }
	st := func(u uexpr.Tuple) uexpr.Tuple { return refSubstTuple(p, u, id, repl) }
	fs := func(gs []fol.Formula) []fol.Formula {
		out := make([]fol.Formula, len(gs))
		for i, g := range gs {
			out[i] = sf(g)
		}
		return out
	}
	binds := func(vs []*uexpr.TVar) bool {
		for _, v := range vs {
			if v.ID == id {
				return true
			}
		}
		return false
	}
	switch x := f.(type) {
	case *fol.TrueF, *fol.FalseF:
		return f
	case *fol.TupleEq:
		return p.MkTupleEq(st(x.L), st(x.R))
	case *fol.PredApp:
		return p.MkPredApp(x.Pred, st(x.T))
	case *fol.IsNull:
		return p.MkIsNull(st(x.T))
	case *fol.IntEq:
		return p.MkIntEq(sm(x.L), sm(x.R))
	case *fol.IntGt0:
		return p.MkIntGt0(sm(x.T))
	case *fol.IntLe1:
		return p.MkIntLe1(sm(x.T))
	case *fol.Not:
		return p.MkNot(sf(x.F))
	case *fol.And:
		return p.MkAnd(fs(x.Fs)...)
	case *fol.Or:
		return p.MkOr(fs(x.Fs)...)
	case *fol.Implies:
		return p.MkImplies(sf(x.L), sf(x.R))
	case *fol.Forall:
		if binds(x.Vars) {
			return f
		}
		return p.MkForall(x.Vars, sf(x.Body))
	case *fol.Exists:
		if binds(x.Vars) {
			return f
		}
		return p.MkExists(x.Vars, sf(x.Body))
	}
	panic("unknown formula")
}

func refSubstTerm(p *Pool, t fol.Term, id int, repl uexpr.Tuple) fol.Term {
	ts := func(us []fol.Term) []fol.Term {
		out := make([]fol.Term, len(us))
		for i, u := range us {
			out[i] = refSubstTerm(p, u, id, repl)
		}
		return out
	}
	switch x := t.(type) {
	case *fol.RelApp:
		return p.MkRelApp(x.Rel, refSubstTuple(p, x.T, id, repl))
	case *fol.IntConst:
		return t
	case *fol.ITE:
		return p.MkITE(refSubstFormula(p, x.Cond, id, repl),
			refSubstTerm(p, x.Then, id, repl), refSubstTerm(p, x.Else, id, repl))
	case *fol.MulT:
		return p.MkMulT(ts(x.Fs))
	case *fol.AddT:
		return p.MkAddT(ts(x.Ts))
	}
	panic("unknown term")
}

func refSubstTuple(p *Pool, t uexpr.Tuple, id int, repl uexpr.Tuple) uexpr.Tuple {
	switch x := t.(type) {
	case *uexpr.TVar:
		if x.ID == id {
			return repl
		}
		return t
	case *uexpr.TAttr:
		return p.MkAttr(x.Attrs, refSubstTuple(p, x.T, id, repl))
	case *uexpr.TConcat:
		return p.MkConcat(refSubstTuple(p, x.L, id, repl), refSubstTuple(p, x.R, id, repl))
	}
	panic("unknown tuple")
}

// randTuple, randTerm and randFormula build random pooled nodes over the
// variables t1..t3; quantifiers bind them too, so nested binders shadow.
func randTuple(rng *rand.Rand, p *Pool, depth int) uexpr.Tuple {
	switch k := rng.Intn(4); {
	case depth <= 0 || k < 2:
		return p.MkVar(1 + rng.Intn(3))
	case k == 2:
		return p.MkAttr(attrsSym(rng.Intn(2)), randTuple(rng, p, depth-1))
	default:
		return p.MkConcat(randTuple(rng, p, depth-1), randTuple(rng, p, depth-1))
	}
}

func randTerm(rng *rand.Rand, p *Pool, depth int) fol.Term {
	if depth <= 0 {
		return p.MkRelApp(relSym(rng.Intn(2)), randTuple(rng, p, 1))
	}
	switch rng.Intn(5) {
	case 0:
		return p.MkRelApp(relSym(rng.Intn(2)), randTuple(rng, p, 2))
	case 1:
		return p.MkIntConst(rng.Intn(2))
	case 2:
		return p.MkITE(randFormula(rng, p, depth-1), randTerm(rng, p, depth-1), randTerm(rng, p, depth-1))
	case 3:
		return p.MkMulT([]fol.Term{randTerm(rng, p, depth-1), randTerm(rng, p, depth-1)})
	default:
		return p.MkAddT([]fol.Term{randTerm(rng, p, depth-1), randTerm(rng, p, depth-1)})
	}
}

func randFormula(rng *rand.Rand, p *Pool, depth int) fol.Formula {
	if depth <= 0 {
		return p.MkTupleEq(randTuple(rng, p, 2), randTuple(rng, p, 2))
	}
	sub := func() fol.Formula { return randFormula(rng, p, depth-1) }
	vars := func() []*uexpr.TVar {
		return []*uexpr.TVar{{ID: 1 + rng.Intn(3)}, {ID: 1 + rng.Intn(3)}}[:1+rng.Intn(2)]
	}
	switch rng.Intn(14) {
	case 0:
		return p.True()
	case 1:
		return p.False()
	case 2:
		return p.MkTupleEq(randTuple(rng, p, 2), randTuple(rng, p, 2))
	case 3:
		return p.MkPredApp(predSym(rng.Intn(2)), randTuple(rng, p, 2))
	case 4:
		return p.MkIsNull(randTuple(rng, p, 2))
	case 5:
		return p.MkIntEq(randTerm(rng, p, depth-1), randTerm(rng, p, depth-1))
	case 6:
		return p.MkIntGt0(randTerm(rng, p, depth-1))
	case 7:
		return p.MkIntLe1(randTerm(rng, p, depth-1))
	case 8:
		return p.MkNot(sub())
	case 9:
		return p.MkAnd(sub(), sub(), sub())
	case 10:
		return p.MkOr(sub(), sub())
	case 11:
		return p.MkImplies(sub(), sub())
	case 12:
		return p.MkForall(vars(), sub())
	default:
		return p.MkExists(vars(), p.MkForall(vars(), sub()))
	}
}

// TestPropSubstMatchesReference: over random pooled formulas, quantifiers
// that shadow included, the substitution over the traversal returns exactly
// the node the per-kind reference builds, hands unchanged formulas back as
// themselves, and every result is canonical.
func TestPropSubstMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	p := NewPool()
	shadowed, unchanged := 0, 0
	for i := 0; i < 2000; i++ {
		f := randFormula(rng, p, 1+rng.Intn(5))
		id := 1 + rng.Intn(3)
		repl := randTuple(rng, p, 2)
		got := p.SubstFormula(f, id, repl)
		if want := refSubstFormula(p, f, id, repl); got != want {
			t.Fatalf("subst t%d := %s in\n  %s\ngot  %s\nwant %s", id, repl, f, got, want)
		}
		if p.Formula(got) != got || p.Formula(plainCopy(got)) != got {
			t.Fatalf("result %s is not canonical", got)
		}
		if got == f {
			unchanged++
		}
		if q, ok := f.(*fol.Exists); ok && q.Vars[0].ID == id {
			shadowed++
		}
	}
	if shadowed == 0 || unchanged == 0 {
		t.Errorf("property saw %d shadowing binders and %d unchanged results, want both", shadowed, unchanged)
	}
}

// plainCopy rebuilds f as plain fol nodes sharing nothing with the pool.
func plainCopy(f fol.Formula) fol.Formula {
	var m fol.Mapper
	m = fol.Mapper{
		Formula: func(g fol.Formula) fol.Formula { return m.MapFormula(g, nil) },
		Term:    func(u fol.Term) fol.Term { return m.MapTerm(u, nil) },
		Tuple: func(u uexpr.Tuple) uexpr.Tuple {
			return uexpr.MapTuple(u, func(c uexpr.Tuple) uexpr.Tuple { return c }, nil)
		},
		Copy: true,
	}
	return m.MapFormula(f, nil)
}

// TestPooledMapIsCanonical: a pooled map that changes children returns pool
// nodes — what canonicalising a plain copy of the result gives back.
func TestPooledMapIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewPool()
	v9 := p.MkVar(9)
	var m fol.Mapper
	m = fol.Mapper{
		Formula: func(g fol.Formula) fol.Formula { return m.MapFormula(g, p) },
		Term:    func(u fol.Term) fol.Term { return m.MapTerm(u, p) },
		Tuple:   func(uexpr.Tuple) uexpr.Tuple { return v9 },
	}
	for i := 0; i < 500; i++ {
		f := randFormula(rng, p, 1+rng.Intn(4))
		r := m.MapFormula(f, p)
		if p.Formula(r) != r || p.Formula(plainCopy(r)) != r {
			t.Fatalf("map result %s is not canonical", r)
		}
	}
}
