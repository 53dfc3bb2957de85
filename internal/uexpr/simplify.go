package uexpr

import (
	"wetune/internal/template"
)

// simplify applies the per-term rewrite lemmas to a normal form and reports
// whether anything changed: a lemma fired, a nested normal form changed, a
// factor or a term dropped out, or two complementary terms merged. Each
// lemma is a proven U-semiring identity, possibly conditioned on constraint
// facts from the environment; applying them never changes the denotation of
// the expression under interpretations satisfying the constraints.
func (n *normalizer) simplify(nf *NF) (*NF, bool) {
	out, changed := &NF{}, false
	for _, t := range nf.Terms {
		t2, ch := n.simplifyTerm(t)
		changed = changed || ch
		if t2 != nil {
			out.Terms = append(out.Terms, t2)
		}
	}
	out, merged := n.mergeComplementary(out, false)
	return out, changed || merged
}

// lemmas are the per-term rewrite lemmas, in the order simplifyTerm applies
// them. Each returns the rewritten term and true when it fires; a nil term
// with true says the whole term is 0.
var lemmas = [...]func(*normalizer, *Term) (*Term, bool){
	(*normalizer).elimEquality,
	(*normalizer).resolveConcatAttrs,
	(*normalizer).dropTrivialBrackets,
	(*normalizer).applyNotNull,
	(*normalizer).collapseUniqueSquash,
	(*normalizer).applyRefExists,
	(*normalizer).antiJoinDead,
	(*normalizer).elimIsNullVar,
	(*normalizer).dedupIdempotent,
	(*normalizer).flattenConcats,
	(*normalizer).congruenceRewrite,
	(*normalizer).subAttrsCompose,
	(*normalizer).elimKeyedVar,
	(*normalizer).uniqueRowCollapse,
	(*normalizer).dedupUniqueRel,
}

// simplifyTerm simplifies the normal forms nested in t and then applies the
// lemmas until none fires. It reports whether anything changed; a nil term is
// 0.
func (n *normalizer) simplifyTerm(t *Term) (*Term, bool) {
	changed := false
	factors := make([]Factor, 0, len(t.Factors))
	for _, f := range t.Factors {
		switch x := f.(type) {
		case *NotNF:
			inner, ch := n.simplify(x.NF)
			if len(inner.Terms) == 0 {
				changed = true
				continue // not(0) = 1: drop factor
			}
			if allTermsConstPositive(inner) {
				return nil, true // not(positive) = 0: term dies
			}
			changed = changed || ch
			factors = append(factors, &NotNF{NF: inner})
		case *SquashNF:
			inner, ch := n.simplify(x.NF)
			inner, unwrapped := n.unwrapInnerSquash(inner)
			inner, merged := n.mergeComplementary(inner, true)
			if len(inner.Terms) == 0 {
				return nil, true // ||0|| = 0: term dies
			}
			// Re-run the squash constructor: the merge may have left a
			// single-term body that distributes, or a positive constant,
			// which drops the factor. A body it leaves whole is no change.
			fs := n.squashOf(inner).Terms[0].Factors
			kept := len(fs) == 1
			if kept {
				sq, ok := fs[0].(*SquashNF)
				kept = ok && sq.NF == inner
			}
			changed = changed || ch || unwrapped || merged || !kept
			factors = append(factors, fs...)
		default:
			factors = append(factors, f)
		}
	}
	t = &Term{Vars: t.Vars, Factors: factors}

	// The lemmas reach a fixpoint on every closure the size-2 replay and the
	// Table 7 rules prepare; the cap bounds a chain some unforeseen
	// constraint set might drive. Stopping early only under-normalizes, which
	// at worst rejects a provable rule.
	for iter := 0; iter < 40; iter++ {
		fired := false
		for _, lemma := range lemmas {
			if t2, ok := lemma(n, t); ok {
				if t2 == nil {
					return nil, true
				}
				t, fired = t2, true
			}
		}
		if !fired {
			break
		}
		changed = true
	}
	return t, changed
}

func (t *Term) boundSet() map[int]bool {
	out := map[int]bool{}
	for _, v := range t.Vars {
		out[v.ID] = true
	}
	return out
}

// elimEquality applies sum_x [x = tau] * g(x) = g(tau) when x is a bound
// variable and tau does not mention x.
func (n *normalizer) elimEquality(t *Term) (*Term, bool) {
	bound := t.boundSet()
	for fi, f := range t.Factors {
		br, ok := f.(*Bracket)
		if !ok {
			continue
		}
		eq, ok := br.B.(*BEq)
		if !ok {
			continue
		}
		try := func(v Tuple, other Tuple) (*Term, bool) {
			tv, isVar := v.(*TVar)
			if !isVar || !bound[tv.ID] || mentions(other, tv) {
				return nil, false
			}
			// Remove the factor, drop the var, substitute everywhere.
			nt := &Term{}
			for _, w := range t.Vars {
				if w.ID != tv.ID {
					nt.Vars = append(nt.Vars, w)
				}
			}
			sub := mapper{sub: map[int]Tuple{tv.ID: other}}
			for fj, g := range t.Factors {
				if fj != fi {
					nt.Factors = append(nt.Factors, sub.factor(g))
				}
			}
			return nt, true
		}
		if nt, ok := try(eq.L, eq.R); ok {
			return nt, true
		}
		if nt, ok := try(eq.R, eq.L); ok {
			return nt, true
		}
	}
	return nil, false
}

// resolveConcatAttrs rewrites a(x.y) to a(x) or a(y) when the environment
// knows which side supplies a's attributes (SubAttrs(a, a_r)), and
// a_r(x.y) to the component whose scope is exactly {r}.
func (n *normalizer) resolveConcatAttrs(t *Term) (*Term, bool) {
	return mapTerm(t, n.resolveTuple)
}

func (n *normalizer) resolveTuple(tt Tuple) Tuple {
	tt = MapTuple(tt, n.resolveTuple, nil)
	x, ok := tt.(*TAttr)
	if !ok {
		return tt
	}
	cc, ok := x.T.(*TConcat)
	if !ok {
		return tt
	}
	var sources map[template.Sym]bool
	if x.Attrs.Kind == template.KAttrsOf {
		sources = map[template.Sym]bool{{Kind: template.KRel, ID: x.Attrs.ID}: true}
	} else {
		sources = n.env.AttrSource[x.Attrs]
	}
	if len(sources) == 0 {
		return tt
	}
	side, ok := pickSide(cc, sources)
	if !ok {
		return tt
	}
	if x.Attrs.Kind == template.KAttrsOf && scopeExactly(side, sources) {
		return side // a_r(x) where x ranges exactly over r: identity.
	}
	return n.resolveTuple(&TAttr{Attrs: x.Attrs, T: side})
}

// pickSide chooses the concat component whose scope covers all source
// relations, when exactly one side qualifies.
func pickSide(cc *TConcat, sources map[template.Sym]bool) (Tuple, bool) {
	lOK := scopeCovers(cc.L, sources)
	rOK := scopeCovers(cc.R, sources)
	if lOK && !rOK {
		return cc.L, true
	}
	if rOK && !lOK {
		return cc.R, true
	}
	// Both sides qualify: safe only when they are the same tuple (e.g. after
	// a Unique-driven row collapse made x.x).
	if lOK && rOK && sameTuple(cc.L, cc.R) {
		return cc.L, true
	}
	return nil, false
}

// tupleScope lists the relations the components of a concatenation range
// over; an attribute projection has none.
func tupleScope(t Tuple) []template.Sym {
	switch x := t.(type) {
	case *TVar:
		return x.Scope
	case *TConcat:
		return append(append([]template.Sym{}, tupleScope(x.L)...), tupleScope(x.R)...)
	}
	return nil
}

func scopeCovers(t Tuple, sources map[template.Sym]bool) bool {
	scope := tupleScope(t)
	if len(scope) == 0 {
		return false
	}
	in := map[template.Sym]bool{}
	for _, s := range scope {
		in[s] = true
	}
	for s := range sources {
		if !in[s] {
			return false
		}
	}
	return true
}

func scopeExactly(t Tuple, sources map[template.Sym]bool) bool {
	scope := tupleScope(t)
	if len(scope) != len(sources) {
		return false
	}
	for _, s := range scope {
		if !sources[s] {
			return false
		}
	}
	return true
}

// dropTrivialBrackets removes [x = x] factors.
func (n *normalizer) dropTrivialBrackets(t *Term) (*Term, bool) {
	for fi, f := range t.Factors {
		if br, ok := f.(*Bracket); ok {
			if eq, ok := br.B.(*BEq); ok && sameTuple(eq.L, eq.R) {
				return removeFactor(t, fi), true
			}
		}
	}
	return nil, false
}

func removeFactor(t *Term, idx int) *Term {
	nt := &Term{Vars: t.Vars}
	for i, f := range t.Factors {
		if i != idx {
			nt.Factors = append(nt.Factors, f)
		}
	}
	return nt
}

// relOn reports whether fs has a factor r(arg) for which ok(r) holds.
func relOn(fs []Factor, arg Tuple, ok func(r template.Sym) bool) bool {
	for _, f := range fs {
		if r, isRel := f.(*Rel); isRel && sameTuple(r.T, arg) && ok(r.Rel) {
			return true
		}
	}
	return false
}

// applyNotNull uses NotNull(r, a): in a term containing the factor r(v),
// not([IsNull(a(v))]) is 1 (drop) and [IsNull(a(v))] is 0 (term dies).
func (n *normalizer) applyNotNull(t *Term) (*Term, bool) {
	for fi, f := range t.Factors {
		// not([IsNull(a(v))]) as NotNF around a single bracket.
		if nn, ok := f.(*NotNF); ok {
			if inner, ok := singleFactor(nn.NF); ok {
				if br, ok := inner.(*Bracket); ok {
					if isn, ok := br.B.(*BIsNull); ok {
						if attr, ok := isn.T.(*TAttr); ok && n.notNullApplies(t, attr) {
							return removeFactor(t, fi), true
						}
					}
				}
			}
		}
		if br, ok := f.(*Bracket); ok {
			if isn, ok := br.B.(*BIsNull); ok {
				if attr, ok := isn.T.(*TAttr); ok && n.notNullApplies(t, attr) {
					return nil, true // [IsNull] = 0 under NotNull
				}
			}
		}
	}
	return nil, false
}

// notNullApplies reports whether a factor r(v) in the term guarantees that
// attr = a(v) is non-NULL via NotNull(r, a).
func (n *normalizer) notNullApplies(t *Term, attr *TAttr) bool {
	return relOn(t.Factors, attr.T, func(r template.Sym) bool { return n.env.NotNull[[2]template.Sym{r, attr.Attrs}] })
}

// matchKeyedSum recognizes the shape sum_y( r(y) * [a(y) = tau] *
// (optional not([IsNull(tau)])) ) inside an NF, returning its parts.
type keyedSum struct {
	rel   template.Sym
	attrs template.Sym
	v     *TVar
	tau   Tuple
	term  *Term
	extra []Factor // remaining factors independent of y (must be empty here)
}

func matchKeyedSum(nf *NF) (*keyedSum, bool) {
	return matchKeyedSumOpt(nf, false)
}

// matchKeyedSumOpt recognizes sum_y r(y)*[a(y)=tau]*extras. With allowExtra
// false, extras may only be not([IsNull(...)]) guards independent of y (the
// shape needed by the existence lemmas, which must bound the sum from
// below). With allowExtra true, arbitrary additional 0/1 factors are
// permitted, including ones reading y — enough for upper-bound reasoning
// (Unique implies the sum is at most 1 regardless of extra 0/1 factors).
func matchKeyedSumOpt(nf *NF, allowExtra bool) (*keyedSum, bool) {
	if len(nf.Terms) != 1 {
		return nil, false
	}
	t := nf.Terms[0]
	if len(t.Vars) != 1 {
		return nil, false
	}
	y := t.Vars[0]
	ks := &keyedSum{v: y, term: t}
	foundRel, foundEq := false, false
	for _, f := range t.Factors {
		switch x := f.(type) {
		case *Rel:
			tv, ok := x.T.(*TVar)
			if !ok || tv.ID != y.ID || foundRel {
				return nil, false
			}
			ks.rel = x.Rel
			foundRel = true
		case *Bracket:
			if eq, ok := x.B.(*BEq); ok && !foundEq {
				if attr, tau, ok2 := splitKeyEq(eq, y.ID); ok2 {
					if !mentions(tau, y) {
						ks.attrs = attr
						ks.tau = tau
						foundEq = true
						continue
					}
				}
			}
			if !allowExtra {
				return nil, false
			}
			ks.extra = append(ks.extra, f)
		case *NotNF, *SquashNF:
			if !allowExtra && factorUses(f, y) {
				return nil, false
			}
			if _, isSquash := f.(*SquashNF); isSquash && !allowExtra {
				return nil, false
			}
			ks.extra = append(ks.extra, f)
		default:
			return nil, false
		}
	}
	if !foundRel || !foundEq {
		return nil, false
	}
	return ks, true
}

// splitKeyEq decomposes [a(y) = tau] (either orientation).
func splitKeyEq(eq *BEq, yID int) (template.Sym, Tuple, bool) {
	try := func(l, r Tuple) (template.Sym, Tuple, bool) {
		attr, ok := l.(*TAttr)
		if !ok {
			return template.Sym{}, nil, false
		}
		tv, ok := attr.T.(*TVar)
		if !ok || tv.ID != yID {
			return template.Sym{}, nil, false
		}
		return attr.Attrs, r, true
	}
	if a, tau, ok := try(eq.L, eq.R); ok {
		return a, tau, true
	}
	return try(eq.R, eq.L)
}

// collapseUniqueSquash applies ||sum_y r(y)*[a(y)=tau]|| = sum_y
// r(y)*[a(y)=tau] under Unique(r, a): the sum is 0 or 1, so squashing it is
// the identity. The inner summation is merged into the enclosing term.
func (n *normalizer) collapseUniqueSquash(t *Term) (*Term, bool) {
	for fi, f := range t.Factors {
		sq, ok := f.(*SquashNF)
		if !ok {
			continue
		}
		ks, ok := matchKeyedSumOpt(sq.NF, true)
		if !ok {
			continue
		}
		if !n.env.UniqueKey[[2]template.Sym{ks.rel, ks.attrs}] {
			continue
		}
		// Merge: replace the squash factor with the sum's body, binding y in
		// the outer term (renamed apart if needed).
		nt := removeFactor(t, fi)
		inner := &Term{Vars: []*TVar{ks.v}, Factors: ks.term.Factors}
		inner = n.renameApart(inner, nt)
		nt = &Term{
			Vars:    append(append([]*TVar{}, nt.Vars...), inner.Vars...),
			Factors: append(append([]Factor{}, nt.Factors...), inner.Factors...),
		}
		return nt, true
	}
	return nil, false
}

// applyRefExists drops a ||sum_y r2(y)*[a2(y)=a1(v)]...|| factor when
// RefAttrs(r1,a1,r2,a2) holds, the term contains r1(v), and a1(v) is known
// non-NULL (via NotNull(r1,a1) or an explicit guard factor in the term):
// the referenced value always exists, so the squash evaluates to 1 whenever
// the term is non-zero.
func (n *normalizer) applyRefExists(t *Term) (*Term, bool) {
	for fi, f := range t.Factors {
		sq, ok := f.(*SquashNF)
		if !ok {
			continue
		}
		ks, ok := matchKeyedSum(sq.NF)
		if !ok {
			continue
		}
		if n.existsWitness(t, fi, ks) {
			return removeFactor(t, fi), true
		}
	}
	return nil, false
}

// termGuardsNotNull reports whether the term (excluding factor skip) contains
// a not([IsNull(attr)]) factor for the given attribute application.
func termGuardsNotNull(t *Term, skip int, attr *TAttr) bool {
	for i, f := range t.Factors {
		if i == skip {
			continue
		}
		nn, ok := f.(*NotNF)
		if !ok {
			continue
		}
		inner, ok := singleFactor(nn.NF)
		if !ok {
			continue
		}
		br, ok := inner.(*Bracket)
		if !ok {
			continue
		}
		isn, ok := br.B.(*BIsNull)
		if !ok {
			continue
		}
		if sameTuple(isn.T, attr) {
			return true
		}
	}
	return false
}

// antiJoinDead finds the whole term 0 (a nil term) when it contains a factor
// not(sum_y r2(y)*[a2(y)=a1(v)]...) where RefAttrs(r1,a1,r2,a2) and
// NotNull(r1,a1) hold and the term contains r1(v) — the sum is >= 1 whenever
// r1(v) > 0, so the negation kills every non-zero assignment.
func (n *normalizer) antiJoinDead(t *Term) (*Term, bool) {
	for _, f := range t.Factors {
		nn, ok := f.(*NotNF)
		if !ok {
			continue
		}
		ks, ok := matchKeyedSum(nn.NF)
		if !ok {
			continue
		}
		a1v, ok := ks.tau.(*TAttr)
		if !ok {
			continue
		}
		if relOn(t.Factors, a1v.T, func(r1 template.Sym) bool {
			return n.env.Ref[[4]template.Sym{r1, a1v.Attrs, ks.rel, ks.attrs}] && n.env.NotNull[[2]template.Sym{r1, a1v.Attrs}]
		}) {
			return nil, true
		}
	}
	return nil, false
}

// elimIsNullVar applies sum_y [IsNull(y)] = 1: when a bound variable's only
// occurrence is a single [IsNull(y)] bracket, drop both (the summation
// domain contains exactly one all-NULL tuple).
func (n *normalizer) elimIsNullVar(t *Term) (*Term, bool) {
	for vi, v := range t.Vars {
		occurrences := 0
		isNullIdx := -1
		for fi, f := range t.Factors {
			if factorUses(f, v) {
				occurrences++
				if br, ok := f.(*Bracket); ok {
					if isn, ok := br.B.(*BIsNull); ok {
						if tv, ok := isn.T.(*TVar); ok && tv.ID == v.ID {
							isNullIdx = fi
						}
					}
				}
			}
		}
		if occurrences == 1 && isNullIdx >= 0 {
			nt := removeFactor(t, isNullIdx)
			vars := make([]*TVar, 0, len(t.Vars)-1)
			for vj, w := range nt.Vars {
				if vj != vi {
					vars = append(vars, w)
				}
			}
			nt.Vars = vars
			return nt, true
		}
	}
	return nil, false
}

// dedupIdempotent removes duplicate 0/1-valued factors ([b], not, squash).
func (n *normalizer) dedupIdempotent(t *Term) (*Term, bool) {
	seen := map[string]bool{}
	for fi, f := range t.Factors {
		switch f.(type) {
		case *Bracket, *NotNF, *SquashNF:
			key := renderFactor(f)
			if seen[key] {
				return removeFactor(t, fi), true
			}
			seen[key] = true
		}
	}
	return nil, false
}
