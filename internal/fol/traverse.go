package fol

import (
	"slices"

	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// This file is the one definition of what a formula and an integer term are
// made of: MapFormula and MapTerm hold the only structural switches over
// them, and every substitution, canonicalisation, skolemisation and walk of
// fol, intern and smt is a local rule over them. Consumers that give each
// kind a meaning keep a switch of their own (DESIGN.md, "One traversal").

// builder makes formula and term nodes from their parts; a Mapper rebuilds
// every node it changes through the one it is given. The plain builder (nil)
// allocates fol nodes; *intern.Pool, whose Mk* constructors are this method
// set, returns hash-consed ones. MkAnd and MkOr flatten like the package's
// MkAnd and MkOr; MkMulT and MkAddT may keep the slice they are given. It is
// an argument of MapFormula and MapTerm, not a Mapper field: a call through
// an interface kept beside the hooks would move them, and whatever they
// capture, to the heap, and walks would allocate.
type builder interface {
	True() Formula
	False() Formula
	MkTupleEq(l, r uexpr.Tuple) Formula
	MkPredApp(pred template.Sym, t uexpr.Tuple) Formula
	MkIsNull(t uexpr.Tuple) Formula
	MkIntEq(l, r Term) Formula
	MkIntGt0(t Term) Formula
	MkIntLe1(t Term) Formula
	MkNot(f Formula) Formula
	MkAnd(fs ...Formula) Formula
	MkOr(fs ...Formula) Formula
	MkImplies(l, r Formula) Formula
	MkForall(vars []*uexpr.TVar, body Formula) Formula
	MkExists(vars []*uexpr.TVar, body Formula) Formula
	MkRelApp(rel template.Sym, t uexpr.Tuple) Term
	MkIntConst(n int) Term
	MkITE(cond Formula, then, els Term) Term
	MkMulT(fs []Term) Term
	MkAddT(ts []Term) Term
}

// A Mapper rewrites the children of one formula or term node copy-on-write:
// MapFormula and MapTerm return their input itself when no child changed, so
// a map that changes nothing allocates nothing, and a walk is a Mapper whose
// hooks return what they are given. A recursive rewrite or walk is a hook
// that maps its child again, through the same Mapper or its own rule. The
// positions a Mapper offers, in source order, are the child formulas, the
// child terms and the tuple arguments of every kind; quantifiers also offer
// their variables to Bind.
type Mapper struct {
	// Formula maps each child formula: the operands of Not, And, Or and
	// Implies, a quantifier's body, an ITE's condition. nil keeps them.
	Formula func(Formula) Formula
	// Term maps each child term: the sides of IntEq, IntGt0 and IntLe1, an
	// ITE's branches, the operands of MulT and AddT. nil keeps them.
	Term func(Term) Term
	// Tuple maps the tuple arguments of TupleEq, PredApp, IsNull and RelApp;
	// what is inside a tuple is uexpr's. nil keeps them.
	Tuple func(uexpr.Tuple) uexpr.Tuple
	// Bind, when set, sees the variables of a quantifier before its body; if
	// it returns true the quantifier comes back as it is. It carries the
	// binder rule of a substitution, and walks that stay outside quantifiers.
	Bind func([]*uexpr.TVar) bool
	// Copy rebuilds every node, changed or not: it is how a pool
	// canonicalises nodes it did not make.
	Copy bool
}

// MapFormula maps the children of f and, if one changed, rebuilds f from
// them through b: nil for plain nodes, or a *intern.Pool.
func (m *Mapper) MapFormula(f Formula, b builder) Formula {
	if b == nil {
		b = plain{}
	}
	switch x := f.(type) {
	case *TrueF:
		if m.Copy {
			return b.True()
		}
	case *FalseF:
		if m.Copy {
			return b.False()
		}
	case *TupleEq:
		if l, r := apply(m.Tuple, x.L), apply(m.Tuple, x.R); m.Copy || l != x.L || r != x.R {
			return b.MkTupleEq(l, r)
		}
	case *PredApp:
		if t := apply(m.Tuple, x.T); m.Copy || t != x.T {
			return b.MkPredApp(x.Pred, t)
		}
	case *IsNull:
		if t := apply(m.Tuple, x.T); m.Copy || t != x.T {
			return b.MkIsNull(t)
		}
	case *IntEq:
		if l, r := apply(m.Term, x.L), apply(m.Term, x.R); m.Copy || l != x.L || r != x.R {
			return b.MkIntEq(l, r)
		}
	case *IntGt0:
		if t := apply(m.Term, x.T); m.Copy || t != x.T {
			return b.MkIntGt0(t)
		}
	case *IntLe1:
		if t := apply(m.Term, x.T); m.Copy || t != x.T {
			return b.MkIntLe1(t)
		}
	case *Not:
		if g := apply(m.Formula, x.F); m.Copy || g != x.F {
			return b.MkNot(g)
		}
	case *And:
		if fs, ok := mapSlice(x.Fs, m.Formula, m.Copy); ok {
			return b.MkAnd(fs...)
		}
	case *Or:
		if fs, ok := mapSlice(x.Fs, m.Formula, m.Copy); ok {
			return b.MkOr(fs...)
		}
	case *Implies:
		if l, r := apply(m.Formula, x.L), apply(m.Formula, x.R); m.Copy || l != x.L || r != x.R {
			return b.MkImplies(l, r)
		}
	case *Forall:
		if m.Bind != nil && m.Bind(x.Vars) {
			return f
		}
		if body := apply(m.Formula, x.Body); m.Copy || body != x.Body {
			return b.MkForall(x.Vars, body)
		}
	case *Exists:
		if m.Bind != nil && m.Bind(x.Vars) {
			return f
		}
		if body := apply(m.Formula, x.Body); m.Copy || body != x.Body {
			return b.MkExists(x.Vars, body)
		}
	default:
		panic("fol: MapFormula on an unknown kind")
	}
	return f
}

// MapTerm maps the children of t and, if one changed, rebuilds t from them
// through b, as MapFormula does.
func (m *Mapper) MapTerm(t Term, b builder) Term {
	if b == nil {
		b = plain{}
	}
	switch x := t.(type) {
	case *RelApp:
		if u := apply(m.Tuple, x.T); m.Copy || u != x.T {
			return b.MkRelApp(x.Rel, u)
		}
	case *IntConst:
		if m.Copy {
			return b.MkIntConst(x.N)
		}
	case *ITE:
		c, th, el := apply(m.Formula, x.Cond), apply(m.Term, x.Then), apply(m.Term, x.Else)
		if m.Copy || c != x.Cond || th != x.Then || el != x.Else {
			return b.MkITE(c, th, el)
		}
	case *MulT:
		if fs, ok := mapSlice(x.Fs, m.Term, m.Copy); ok {
			return b.MkMulT(fs)
		}
	case *AddT:
		if ts, ok := mapSlice(x.Ts, m.Term, m.Copy); ok {
			return b.MkAddT(ts)
		}
	default:
		panic("fol: MapTerm on an unknown kind")
	}
	return t
}

// apply is fn(x), or x for a nil fn.
func apply[T any](fn func(T) T, x T) T {
	if fn == nil {
		return x
	}
	return fn(x)
}

// mapSlice applies fn to each element of s in order. It returns a copy
// holding the results and true when one changed or clone is set, and s and
// false otherwise.
func mapSlice[T comparable](s []T, fn func(T) T, clone bool) ([]T, bool) {
	var out []T
	if clone {
		out = slices.Clone(s)
	}
	for i, x := range s {
		y := apply(fn, x)
		if y != x && out == nil {
			out = slices.Clone(s)
		}
		if out != nil {
			out[i] = y
		}
	}
	if out == nil && !clone {
		return s, false
	}
	return out, true
}

// plain is the builder of plain fol nodes.
type plain struct{}

func (plain) True() Formula                                   { return &TrueF{} }
func (plain) False() Formula                                  { return &FalseF{} }
func (plain) MkTupleEq(l, r uexpr.Tuple) Formula              { return &TupleEq{L: l, R: r} }
func (plain) MkPredApp(p template.Sym, t uexpr.Tuple) Formula { return &PredApp{Pred: p, T: t} }
func (plain) MkIsNull(t uexpr.Tuple) Formula                  { return &IsNull{T: t} }
func (plain) MkIntEq(l, r Term) Formula                       { return &IntEq{L: l, R: r} }
func (plain) MkIntGt0(t Term) Formula                         { return &IntGt0{T: t} }
func (plain) MkIntLe1(t Term) Formula                         { return &IntLe1{T: t} }
func (plain) MkNot(f Formula) Formula                         { return &Not{F: f} }
func (plain) MkAnd(fs ...Formula) Formula                     { return MkAnd(fs...) }
func (plain) MkOr(fs ...Formula) Formula                      { return MkOr(fs...) }
func (plain) MkImplies(l, r Formula) Formula                  { return &Implies{L: l, R: r} }
func (plain) MkForall(vs []*uexpr.TVar, f Formula) Formula    { return &Forall{Vars: vs, Body: f} }
func (plain) MkExists(vs []*uexpr.TVar, f Formula) Formula    { return &Exists{Vars: vs, Body: f} }
func (plain) MkRelApp(r template.Sym, t uexpr.Tuple) Term     { return &RelApp{Rel: r, T: t} }
func (plain) MkIntConst(n int) Term                           { return &IntConst{N: n} }
func (plain) MkITE(c Formula, th, el Term) Term               { return &ITE{Cond: c, Then: th, Else: el} }
func (plain) MkMulT(fs []Term) Term                           { return &MulT{Fs: fs} }
func (plain) MkAddT(ts []Term) Term                           { return &AddT{Ts: ts} }
