package uexpr

import (
	"sort"

	"wetune/internal/template"
)

// Additional rewrite lemmas: tuple congruence within a term, SubAttrs
// composition, keyed-sum elimination, Unique row collapse, and the
// complementary-terms identity that eliminates OUTER JOIN padding.

// congruenceRewrite uses the term's top-level [tau1 = tau2] brackets as
// rewrite equations. Every class of equal tuple terms (sameTuple) is (a)
// re-emitted as a canonical chain of equality brackets over its sorted
// members — any spanning set of equalities over the same class has the same
// product value, so the replacement is an identity — and (b) used to rewrite
// every other factor's subterms to the class representative (the minimal
// member, which prefers structured terms over bare `t` variables
// lexicographically, making attribute compositions visible to
// subAttrsCompose). The occurs check: a member is not rewritten to a
// representative holding it beneath a concatenation, since [(s0.s1) = s1]
// would otherwise grow s1 into (s0.(s0.s1)) and so on without end. Beneath a
// projection it is rewritten: [a0(s0) = s0] turns r0(s0) into r0(a0(s0)),
// and rewriteTuple leaves that representative whole.
func (n *normalizer) congruenceRewrite(t *Term) (*Term, bool) {
	var classes [][]Tuple
	lookup := func(tt Tuple) int {
		for i, c := range classes {
			for _, m := range c {
				if sameTuple(m, tt) {
					return i
				}
			}
		}
		classes = append(classes, []Tuple{tt})
		return len(classes) - 1
	}
	hasEq := false
	var rest []Factor
	for _, f := range t.Factors {
		if br, ok := f.(*Bracket); ok {
			if eq, ok := br.B.(*BEq); ok {
				if a, b := lookup(eq.L), lookup(eq.R); a != b {
					classes[a] = append(classes[a], classes[b]...)
					classes[b] = nil
				}
				hasEq = true
				continue
			}
		}
		rest = append(rest, f)
	}
	if !hasEq {
		return nil, false
	}
	// Representatives and canonical chains.
	type member struct {
		t   Tuple
		key string
	}
	var rep [][2]Tuple // member, representative
	var chains []Factor
	for _, c := range classes {
		if len(c) < 2 {
			continue
		}
		ms := make([]member, len(c))
		for i, m := range c {
			ms[i] = member{m, tupleString(m)}
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].key < ms[j].key })
		best := ms[0].t
		for i, m := range ms[1:] {
			if !occursUnderConcat(m.t, best, false) {
				rep = append(rep, [2]Tuple{m.t, best})
			}
			chains = append(chains, &Bracket{B: &BEq{L: ms[i].t, R: m.t}})
		}
	}
	m := mapper{tuple: func(tt Tuple) Tuple { return rewriteTuple(tt, rep) }}
	mapped, _ := m.factors(rest)
	nt := &Term{Vars: t.Vars, Factors: append(chains, mapped...)}
	// Only report a change when the resulting factor multiset differs, to
	// guarantee termination of the rewrite loop.
	if renderTermFixed(nt) == renderTermFixed(t) {
		return nil, false
	}
	return nt, true
}

// flattenConcats canonicalizes tuple concatenation left-associatively:
// x.(y.z) becomes (x.y).z. Concatenation is associative on rows, so this is
// an identity; it aligns the join-association rule's two sides.
func (n *normalizer) flattenConcats(t *Term) (*Term, bool) {
	var flat func(tt Tuple) Tuple
	flat = func(tt Tuple) Tuple {
		tt = MapTuple(tt, flat, nil)
		if c, ok := tt.(*TConcat); ok {
			if rc, ok := c.R.(*TConcat); ok {
				return flat(&TConcat{L: &TConcat{L: c.L, R: rc.L}, R: rc.R})
			}
		}
		return tt
	}
	return mapTerm(t, flat)
}

// unwrapInnerSquash inlines ||g|| factors when the term lives inside an
// enclosing squash: only the support matters there, and supp(C * ||g||) =
// supp(C * g). Single-term bodies merge their summation variables into the
// host term. It reports whether it inlined any.
func (n *normalizer) unwrapInnerSquash(nf *NF) (*NF, bool) {
	out, changed := &NF{}, false
	for _, t := range nf.Terms {
		cur := t
		for {
			idx := -1
			var body *Term
			for fi, f := range cur.Factors {
				sq, ok := f.(*SquashNF)
				if !ok || len(sq.NF.Terms) != 1 {
					continue
				}
				idx = fi
				body = sq.NF.Terms[0]
				break
			}
			if idx < 0 {
				break
			}
			host := removeFactor(cur, idx)
			inline := &Term{Vars: body.Vars, Factors: body.Factors}
			inline = n.renameApart(inline, host)
			cur = &Term{
				Vars:    append(append([]*TVar{}, host.Vars...), inline.Vars...),
				Factors: append(append([]Factor{}, host.Factors...), inline.Factors...),
			}
			changed = true
		}
		out.Terms = append(out.Terms, cur)
	}
	return out, changed
}

// occursUnderConcat reports whether m occurs in t beneath a concatenation;
// under says that t itself is beneath one.
func occursUnderConcat(m, t Tuple, under bool) bool {
	if under && sameTuple(m, t) {
		return true
	}
	_, concat := t.(*TConcat)
	found := false
	MapTuple(t, func(c Tuple) Tuple {
		found = found || occursUnderConcat(m, c, under || concat)
		return c
	}, nil)
	return found
}

// rewriteTuple replaces maximal subterms that are members in rep by their
// representatives, top-down, to a fixpoint bounded by the term depth. It does
// not descend into a representative: under [a0(s0) = s0] it would rewrite
// r0(a0(s0)) to r0(a0(a0(s0))), and deeper on every pass.
func rewriteTuple(tt Tuple, rep [][2]Tuple) Tuple {
	var once func(tt Tuple) Tuple
	once = func(tt Tuple) Tuple {
		for _, r := range rep {
			if sameTuple(tt, r[1]) {
				return tt
			}
			if sameTuple(tt, r[0]) {
				return r[1]
			}
		}
		return MapTuple(tt, once, nil)
	}
	for i := 0; i < 8; i++ {
		next := once(tt)
		if next == tt {
			break
		}
		tt = next
	}
	return tt
}

// subAttrsCompose applies a1(a2(t)) = a1(t) for SubAttrs(a1, a2) (Table 4).
func (n *normalizer) subAttrsCompose(t *Term) (*Term, bool) {
	return mapTerm(t, n.composeTuple)
}

func (n *normalizer) composeTuple(tt Tuple) Tuple {
	tt = MapTuple(tt, n.composeTuple, nil)
	if x, ok := tt.(*TAttr); ok {
		// Projection is idempotent: a(a(t)) = a(t), and composable when
		// SubAttrs(a1, a2) holds.
		if ia, ok := x.T.(*TAttr); ok && (x.Attrs == ia.Attrs || n.env.SubPairs[[2]template.Sym{x.Attrs, ia.Attrs}]) {
			return n.composeTuple(&TAttr{Attrs: x.Attrs, T: ia.T})
		}
	}
	return tt
}

// existsWitness reports whether a keyed sum sum_y r2(y)*[a2(y)=tau] is
// guaranteed >= 1 whenever the surrounding term is non-zero: either
// RefAttrs(r1, a1, r2, a2) with tau = a1(v) and r1(v) in the term, or the
// reflexive case r2 = r1, a2 = a1, tau = a2(v) with r2(v) in the term.
// Both cases need tau known non-NULL (NotNull(r1,a1) or an explicit guard).
func (n *normalizer) existsWitness(t *Term, skip int, ks *keyedSum) bool {
	a1v, ok := ks.tau.(*TAttr)
	if !ok {
		return false
	}
	return relOn(t.Factors, a1v.T, func(r1 template.Sym) bool {
		reflexive := r1 == ks.rel && a1v.Attrs == ks.attrs
		if !reflexive && !n.env.Ref[[4]template.Sym{r1, a1v.Attrs, ks.rel, ks.attrs}] {
			return false
		}
		// Null guard: when the keyed sum carries a not([IsNull(tau)]) guard
		// internally, a NULL tau makes the sum 0 rather than >= 1, so the
		// guard must be ensured by the outer term. Without one, the witness
		// y = v of the reflexive case works regardless of NULLs.
		return len(ks.extra) == 0 && reflexive ||
			n.env.NotNull[[2]template.Sym{r1, a1v.Attrs}] || termGuardsNotNull(t, skip, a1v)
	})
}

// elimKeyedVar removes a bound variable v whose only occurrences are the
// factor pair r2(v), [a2(v) = tau] when Unique(r2, a2) bounds the sum by 1
// and an existence witness bounds it from below: the sub-sum is exactly 1.
func (n *normalizer) elimKeyedVar(t *Term) (*Term, bool) {
	for vi, v := range t.Vars {
		relIdx, eqIdx := -1, -1
		extraUse := false
		var ks keyedSum
		for fi, f := range t.Factors {
			if !factorUses(f, v) {
				continue
			}
			switch x := f.(type) {
			case *Rel:
				if tv, ok := x.T.(*TVar); ok && tv.ID == v.ID && relIdx < 0 {
					relIdx = fi
					ks.rel = x.Rel
				} else {
					extraUse = true
				}
			case *Bracket:
				if eq, ok := x.B.(*BEq); ok && eqIdx < 0 {
					if attrs, tau, ok := splitKeyEq(eq, v.ID); ok {
						if !mentions(tau, v) {
							eqIdx = fi
							ks.attrs = attrs
							ks.tau = tau
							continue
						}
					}
				}
				extraUse = true
			default:
				extraUse = true
			}
		}
		if extraUse || relIdx < 0 || eqIdx < 0 {
			continue
		}
		if !n.env.UniqueKey[[2]template.Sym{ks.rel, ks.attrs}] {
			continue
		}
		// r2(v) cannot witness: tau does not mention v.
		if !n.existsWitness(t, eqIdx, &ks) {
			continue
		}
		// Remove v, the Rel factor and the equality factor.
		nt := &Term{}
		for vj, w := range t.Vars {
			if vj != vi {
				nt.Vars = append(nt.Vars, w)
			}
		}
		for fi, f := range t.Factors {
			if fi != relIdx && fi != eqIdx {
				nt.Factors = append(nt.Factors, f)
			}
		}
		return nt, true
	}
	return nil, false
}

// uniqueRowCollapse applies the second conjunct of Unique(r, a): two rows of
// r agreeing on a are the same row. A bound variable y with factors r(y) and
// [a(y) = a(x)] where r(x) is also present collapses to x (and the duplicate
// r(x) factor collapses because Unique implies r(x) <= 1).
func (n *normalizer) uniqueRowCollapse(t *Term) (*Term, bool) {
	bound := t.boundSet()
	for _, f := range t.Factors {
		br, ok := f.(*Bracket)
		if !ok {
			continue
		}
		eq, ok := br.B.(*BEq)
		if !ok {
			continue
		}
		la, lok := eq.L.(*TAttr)
		ra, rok := eq.R.(*TAttr)
		if !lok || !rok || la.Attrs != ra.Attrs {
			continue
		}
		lv, lok := la.T.(*TVar)
		rv, rok := ra.T.(*TVar)
		if !lok || !rok || lv.ID == rv.ID {
			continue
		}
		tryCollapse := func(y, x *TVar) (*Term, bool) {
			if !bound[y.ID] {
				return nil, false
			}
			if !relOn(t.Factors, y, func(rf template.Sym) bool {
				return n.env.UniqueKey[[2]template.Sym{rf, la.Attrs}] &&
					relOn(t.Factors, x, func(rx template.Sym) bool { return rx == rf })
			}) {
				return nil, false
			}
			// Substitute y := x everywhere, drop y.
			nt := &Term{Factors: SubstFactors(t.Factors, map[int]Tuple{y.ID: x})}
			for _, w := range t.Vars {
				if w.ID != y.ID {
					nt.Vars = append(nt.Vars, w)
				}
			}
			return nt, true
		}
		if nt, ok := tryCollapse(lv, rv); ok {
			return nt, true
		}
		if nt, ok := tryCollapse(rv, lv); ok {
			return nt, true
		}
	}
	return nil, false
}

// dedupUniqueRel removes a repeated r(tau) factor when Unique(r, .) bounds
// r's multiplicities by 1 (then r(tau)^2 = r(tau)).
func (n *normalizer) dedupUniqueRel(t *Term) (*Term, bool) {
	for fi, f := range t.Factors {
		r, ok := f.(*Rel)
		if !ok || !n.env.uniqueRel(r.Rel) {
			continue
		}
		if relOn(t.Factors[:fi], r.T, func(s template.Sym) bool { return s == r.Rel }) {
			return removeFactor(t, fi), true
		}
	}
	return nil, false
}

// mergeComplementary merges term pairs C * M and C * not(M) into C, where M
// is a keyed sum whose inlined form C * M appears as a term: M + not(M) = 1
// when Unique bounds M by 1. This eliminates the padding arm left by an OUTER
// JOIN whose right side is keyed (§5.1.1, rules 11-14 of Table 7). Inside a
// squash (squashed) no Unique is needed: M + not(M) >= 1 always and only the
// support matters, so ||sum C*M + sum C*not(M)|| = ||sum C|| — OUTER JOIN
// padding under Dedup (rules 13/14). It merges until no pair is left and
// reports whether it merged any.
func (n *normalizer) mergeComplementary(nf *NF, squashed bool) (*NF, bool) {
	for i, tNeg := range nf.Terms {
		for fi, f := range tNeg.Factors {
			notF, ok := f.(*NotNF)
			if !ok {
				continue
			}
			ks, ok := matchKeyedSum(notF.NF)
			if !ok || !squashed && !n.env.UniqueKey[[2]template.Sym{ks.rel, ks.attrs}] {
				continue
			}
			// Candidate merged term: tNeg without the not(...) factor.
			merged := removeFactor(tNeg, fi)
			// Candidate positive term: merged with the keyed sum inlined.
			inline := &Term{Vars: []*TVar{ks.v}, Factors: ks.term.Factors}
			inline = n.renameApart(inline, merged)
			positive := &Term{
				Vars:    append(append([]*TVar{}, merged.Vars...), inline.Vars...),
				Factors: append(append([]Factor{}, merged.Factors...), inline.Factors...),
			}
			posCanon := renderTermFixed(n.termSimplified(positive))
			for j, tPos := range nf.Terms {
				if j == i {
					continue
				}
				if renderTermFixed(n.termSimplified(tPos)) != posCanon {
					continue
				}
				// Merge: drop both, add the merged term.
				out := &NF{}
				for k, tk := range nf.Terms {
					if k != i && k != j {
						out.Terms = append(out.Terms, tk)
					}
				}
				out.Terms = append(out.Terms, merged)
				out, _ = n.mergeComplementary(out, squashed)
				return out, true
			}
		}
	}
	return nf, false
}

// termSimplified runs the per-term simplification pipeline on a copy, for
// comparison purposes only, so what it changes is no change to report.
func (n *normalizer) termSimplified(t *Term) *Term {
	if t2, _ := n.simplifyTerm(t); t2 != nil {
		return t2
	}
	return &Term{Factors: []Factor{&Bracket{B: &BIsNull{T: &TVar{ID: -1}}}}} // sentinel, never matches
}
