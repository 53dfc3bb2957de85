package fol

import (
	"fmt"
	"slices"

	"wetune/internal/constraint"
	"wetune/internal/uexpr"
)

// freshVars hands out tuple variables that do not clash with the input.
type freshVars struct{ next int }

func (fv *freshVars) fresh() *uexpr.TVar {
	v := &uexpr.TVar{ID: fv.next}
	fv.next++
	return v
}

// ConstraintToFOL translates one constraint per Table 4 of the paper.
func ConstraintToFOL(c constraint.C, fv *freshVars) (Formula, error) {
	t := fv.fresh()
	switch c.Kind {
	case constraint.RelEq:
		return &Forall{Vars: []*uexpr.TVar{t}, Body: &IntEq{
			L: &RelApp{Rel: c.Syms[0], T: t},
			R: &RelApp{Rel: c.Syms[1], T: t},
		}}, nil
	case constraint.AttrsEq:
		return &Forall{Vars: []*uexpr.TVar{t}, Body: &TupleEq{
			L: &uexpr.TAttr{Attrs: c.Syms[0], T: t},
			R: &uexpr.TAttr{Attrs: c.Syms[1], T: t},
		}}, nil
	case constraint.PredEq:
		p1 := &PredApp{Pred: c.Syms[0], T: t}
		p2 := &PredApp{Pred: c.Syms[1], T: t}
		return &Forall{Vars: []*uexpr.TVar{t}, Body: MkAnd(
			&Implies{L: p1, R: p2},
			&Implies{L: p2, R: p1},
		)}, nil
	case constraint.SubAttrs:
		return &Forall{Vars: []*uexpr.TVar{t}, Body: &TupleEq{
			L: &uexpr.TAttr{Attrs: c.Syms[0], T: t},
			R: &uexpr.TAttr{Attrs: c.Syms[0], T: &uexpr.TAttr{Attrs: c.Syms[1], T: t}},
		}}, nil
	case constraint.RefAttrs:
		t2 := fv.fresh()
		r1, a1, r2, a2 := c.Syms[0], c.Syms[1], c.Syms[2], c.Syms[3]
		return &Forall{Vars: []*uexpr.TVar{t}, Body: &Implies{
			L: MkAnd(
				&IntGt0{T: &RelApp{Rel: r1, T: t}},
				&Not{F: &IsNull{T: &uexpr.TAttr{Attrs: a1, T: t}}},
			),
			R: &Exists{Vars: []*uexpr.TVar{t2}, Body: MkAnd(
				&IntGt0{T: &RelApp{Rel: r2, T: t2}},
				&Not{F: &IsNull{T: &uexpr.TAttr{Attrs: a2, T: t2}}},
				&TupleEq{
					L: &uexpr.TAttr{Attrs: a1, T: t},
					R: &uexpr.TAttr{Attrs: a2, T: t2},
				},
			)},
		}}, nil
	case constraint.Unique:
		t2 := fv.fresh()
		r, a := c.Syms[0], c.Syms[1]
		le1 := &Forall{Vars: []*uexpr.TVar{t}, Body: &IntLe1{T: &RelApp{Rel: r, T: t}}}
		key := &Forall{Vars: []*uexpr.TVar{t, t2}, Body: &Implies{
			L: MkAnd(
				&IntGt0{T: &RelApp{Rel: r, T: t}},
				&IntGt0{T: &RelApp{Rel: r, T: t2}},
				&TupleEq{
					L: &uexpr.TAttr{Attrs: a, T: t},
					R: &uexpr.TAttr{Attrs: a, T: t2},
				},
			),
			R: &TupleEq{L: t, R: t2},
		}}
		return MkAnd(le1, key), nil
	case constraint.NotNull:
		r, a := c.Syms[0], c.Syms[1]
		return &Forall{Vars: []*uexpr.TVar{t}, Body: &Implies{
			L: &IntGt0{T: &RelApp{Rel: r, T: t}},
			R: &Not{F: &IsNull{T: &uexpr.TAttr{Attrs: a, T: t}}},
		}}, nil
	case constraint.AggrEq:
		return nil, fmt.Errorf("fol: AggrEq is outside the built-in verifier's scope")
	}
	return nil, fmt.Errorf("fol: unknown constraint kind %v", c.Kind)
}

// SetToFOL conjoins the translations of a constraint set.
func SetToFOL(cs *constraint.Set, fv *freshVars) (Formula, error) {
	var fs []Formula
	for _, c := range cs.Items() {
		f, err := ConstraintToFOL(c, fv)
		if err != nil {
			return nil, err
		}
		fs = append(fs, f)
	}
	return MkAnd(fs...), nil
}

// NewFreshVars returns a variable allocator starting above base.
func NewFreshVars(base int) *freshVars { return &freshVars{next: base} }

// trFactor translates a normal-form factor to an integer term (Table 5).
func trFactor(f uexpr.Factor) Term {
	switch x := f.(type) {
	case *uexpr.Rel:
		return &RelApp{Rel: x.Rel, T: x.T}
	case *uexpr.Bracket:
		return &ITE{Cond: boolToFormula(x.B), Then: &IntConst{N: 1}, Else: &IntConst{N: 0}}
	case *uexpr.SquashNF:
		return &ITE{Cond: existsPos(x.NF), Then: &IntConst{N: 1}, Else: &IntConst{N: 0}}
	case *uexpr.NotNF:
		return &ITE{Cond: existsPos(x.NF), Then: &IntConst{N: 0}, Else: &IntConst{N: 1}}
	}
	panic(fmt.Sprintf("fol: trFactor on %T", f))
}

func boolToFormula(b uexpr.Bool) Formula {
	switch x := b.(type) {
	case *uexpr.BEq:
		return &TupleEq{L: x.L, R: x.R}
	case *uexpr.BPred:
		return &PredApp{Pred: x.Pred, T: x.T}
	case *uexpr.BIsNull:
		return &IsNull{T: x.T}
	}
	panic("unreachable")
}

// trMul translates a factor product.
func trMul(factors []uexpr.Factor) Term {
	if len(factors) == 0 {
		return &IntConst{N: 1}
	}
	if len(factors) == 1 {
		return trFactor(factors[0])
	}
	fs := make([]Term, len(factors))
	for i, f := range factors {
		fs[i] = trFactor(f)
	}
	return &MulT{Fs: fs}
}

// existsPos translates "the NF is positive" to exists-quantified FOL
// (Table 5 rows ||sum f|| and not(sum f)).
func existsPos(nf *uexpr.NF) Formula {
	var arms []Formula
	for _, t := range nf.Terms {
		body := &IntGt0{T: trMul(t.Factors)}
		if len(t.Vars) == 0 {
			arms = append(arms, body)
		} else {
			arms = append(arms, &Exists{Vars: t.Vars, Body: body})
		}
	}
	return MkOr(arms...)
}

// EquationCandidates builds candidate FOL formulas each of which is a
// sufficient condition for forall t. src(t) = dest(t). Candidates arise from
// the different possible alignments of summation variables (Theorem 5.1) and
// the unaligned-summation form of Theorem 5.2. An empty result with nil error
// means no Table 5 row applies (footnote 3: the verifier cannot translate).
func EquationCandidates(src, dest *uexpr.NF, out *uexpr.TVar) ([]Formula, error) {
	srcTerms, destTerms := src.Terms, dest.Terms
	// Zero-term sides mean the constant 0.
	if len(srcTerms) == 0 && len(destTerms) == 0 {
		return []Formula{&TrueF{}}, nil
	}
	if len(srcTerms) == 0 || len(destTerms) == 0 {
		other := srcTerms
		if len(srcTerms) == 0 {
			other = destTerms
		}
		// sum f = 0  <=>  forall vars. f = 0.
		var fs []Formula
		for _, t := range other {
			body := &IntEq{L: trMul(t.Factors), R: &IntConst{N: 0}}
			fs = append(fs, &Forall{Vars: append([]*uexpr.TVar{out}, t.Vars...), Body: body})
		}
		return []Formula{MkAnd(fs...)}, nil
	}
	if len(srcTerms) != len(destTerms) {
		return nil, nil // untranslatable shape
	}
	// Pair up terms: for small counts try all pairings; the conjunction of
	// pairwise equalities is a sufficient condition for the sum equality.
	idx := make([]int, len(destTerms))
	for i := range idx {
		idx[i] = i
	}
	var candidates []Formula
	permuteInts(idx, 0, func(p []int) {
		var fs []Formula
		ok := true
		for i, st := range srcTerms {
			f, err := termEquation(st, destTerms[p[i]], out)
			if err != nil || f == nil {
				ok = false
				break
			}
			fs = append(fs, f)
		}
		if ok {
			candidates = append(candidates, MkAnd(fs...))
		}
	})
	return candidates, nil
}

// termEquation builds a sufficient condition for sum(varsA) mulA =
// sum(varsB) mulB.
func termEquation(a, b *uexpr.Term, out *uexpr.TVar) (Formula, error) {
	switch {
	case len(a.Vars) == len(b.Vars):
		// Theorem 5.1 shape: align variables, then prove pointwise equality.
		// Any alignment is sound (pointwise equality implies sum equality);
		// pick the alignment that syntactically matches best.
		bAligned := alignVars(a, b)
		body := &IntEq{L: trMul(a.Factors), R: trMul(bAligned.Factors)}
		vars := append([]*uexpr.TVar{out}, a.Vars...)
		return &Forall{Vars: vars, Body: body}, nil
	case len(a.Vars)+1 == len(b.Vars):
		return unalignedEquation(a, b, out)
	case len(b.Vars)+1 == len(a.Vars):
		return unalignedEquation(b, a, out)
	}
	return nil, nil
}

// alignVars renames b's variables to a's, choosing the permutation whose
// relation-factor profile matches a's variables best.
func alignVars(a, b *uexpr.Term) *uexpr.Term {
	k := len(a.Vars)
	if k == 0 {
		return b
	}
	profile := func(t *uexpr.Term, v *uexpr.TVar) string {
		s := ""
		for _, f := range t.Factors {
			if r, ok := f.(*uexpr.Rel); ok {
				if tv, ok := r.T.(*uexpr.TVar); ok && tv.ID == v.ID {
					s += r.Rel.String() + ";"
				}
			}
		}
		return s
	}
	best := b
	bestScore := -1
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	permuteInts(idx, 0, func(p []int) {
		// Rename b.Vars[p[i]] -> a.Vars[i], all at once.
		ren := make(map[int]uexpr.Tuple, k)
		vars := slices.Clone(b.Vars)
		for i := 0; i < k; i++ {
			ren[b.Vars[p[i]].ID] = a.Vars[i]
			vars[p[i]] = a.Vars[i]
		}
		cand := &uexpr.Term{Vars: vars, Factors: uexpr.SubstFactors(b.Factors, ren)}
		score := 0
		for i := 0; i < k; i++ {
			if profile(a, a.Vars[i]) == profile(cand, a.Vars[i]) {
				score++
			}
		}
		if score > bestScore {
			bestScore = score
			best = cand
		}
	})
	return best
}

// unalignedEquation implements Theorem 5.2: sum_t A(t) = sum_{t,s} B(t,s)
// where B = g * h with h the factors mentioning the extra variable s.
func unalignedEquation(a, b *uexpr.Term, out *uexpr.TVar) (Formula, error) {
	// Try each choice of b's extra variable.
	for bi, s := range b.Vars {
		rest := slices.Delete(slices.Clone(b.Vars), bi, bi+1)
		if len(rest) != len(a.Vars) {
			continue
		}
		bAligned := alignVars(a, &uexpr.Term{Vars: rest, Factors: b.Factors})
		// Split bAligned factors into g (no s) and h (mentions s).
		var g, h []uexpr.Factor
		for _, f := range bAligned.Factors {
			if uexpr.FactorUsesVar(f, s.ID) {
				h = append(h, f)
			} else {
				g = append(g, f)
			}
		}
		if len(h) == 0 {
			continue
		}
		A := trMul(a.Factors)
		G := trMul(g)
		H := trMul(h)
		zero := &IntConst{N: 0}
		one := &IntConst{N: 1}
		sP := &uexpr.TVar{ID: s.ID + (1 << 21)}
		HsP := trMul(uexpr.SubstFactors(h, map[int]uexpr.Tuple{s.ID: sP}))
		sumHZero := &Forall{Vars: []*uexpr.TVar{s}, Body: &IntEq{L: H, R: zero}}
		sumHOne := &Exists{Vars: []*uexpr.TVar{s}, Body: MkAnd(
			&IntEq{L: H, R: one},
			&Forall{Vars: []*uexpr.TVar{sP}, Body: MkOr(
				&TupleEq{L: sP, R: s},
				&IntEq{L: HsP, R: zero},
			)},
		)}
		body := MkOr(
			MkAnd(&Not{F: &IntEq{L: A, R: G}}, &IntEq{L: A, R: zero}, sumHZero),
			MkAnd(&IntEq{L: A, R: G}, MkOr(&IntEq{L: A, R: zero}, sumHOne)),
		)
		vars := append([]*uexpr.TVar{out}, a.Vars...)
		return &Forall{Vars: vars, Body: body}, nil
	}
	return nil, nil
}

func permuteInts(p []int, i int, fn func([]int)) {
	if i == len(p) {
		fn(p)
		return
	}
	for j := i; j < len(p); j++ {
		p[i], p[j] = p[j], p[i]
		permuteInts(p, i+1, fn)
		p[i], p[j] = p[j], p[i]
	}
}
