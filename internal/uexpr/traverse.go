package uexpr

import (
	"slices"

	"wetune/internal/template"
)

// This file is the one definition of what a U-expression is made of. There is
// one switch per sort: mapTuple over the tuple kinds, mapper.factor over the
// factor kinds with the Bool kinds of a bracket, and mapper.expr over the
// expression kinds. Every substitution, renaming, symbol map, variable walk
// and lemma rewrite of tuples is written on top of them. The printer
// (renderer.tuple/bool/factor), norm, tupleScope, sameTuple (which compares
// two tuples), and the consumers in fol, smt, intern and verify give each
// kind a meaning and keep their own switches.

// mapTuple applies fn to the children of t and sym to t's own symbols — a
// TAttr's attribute list, a TVar's scope — and returns t itself when nothing
// changed, otherwise a copy holding the results, made by mk (nil makes plain
// nodes). A nil sym keeps the symbols. Rewrites of whole tuple terms are
// recursions over mapTuple: bottom-up ones map the children first and then
// apply their rule to the result.
func mapTuple(t Tuple, fn func(Tuple) Tuple, sym func(template.Sym) template.Sym, mk func(attrs template.Sym, l, r Tuple) Tuple) Tuple {
	switch x := t.(type) {
	case *TVar:
		if sym != nil {
			if scope, ok := mapSlice(x.Scope, sym); ok {
				// Mapping can merge scope entries; keep the first of each, as
				// translating the mapped template would (see ApplySyms).
				return &TVar{ID: x.ID, Scope: dedupeSyms(scope)}
			}
		}
	case *TAttr:
		attrs := x.Attrs
		if sym != nil {
			attrs = sym(attrs)
		}
		if in := fn(x.T); in != x.T || attrs != x.Attrs {
			if mk != nil {
				return mk(attrs, in, nil)
			}
			return &TAttr{Attrs: attrs, T: in}
		}
	case *TConcat:
		if l, r := fn(x.L), fn(x.R); l != x.L || r != x.R {
			if mk != nil {
				return mk(template.Sym{}, l, r)
			}
			return &TConcat{L: l, R: r}
		}
	}
	return t
}

// MapTuple applies fn to the children of t and returns t itself when none
// changed. Otherwise mk makes the copy: mk(attrs, l, nil) for an attribute
// list applied to l, mk(zero, l, r) for a concatenation. A walk passes an fn
// that returns its argument and needs no mk.
func MapTuple(t Tuple, fn func(Tuple) Tuple, mk func(attrs template.Sym, l, r Tuple) Tuple) Tuple {
	return mapTuple(t, fn, nil, mk)
}

// eachVar calls fn on every variable occurrence in t, left to right.
func eachVar(t Tuple, fn func(*TVar)) {
	if v, ok := t.(*TVar); ok {
		fn(v)
		return
	}
	MapTuple(t, func(c Tuple) Tuple { eachVar(c, fn); return c }, nil)
}

// mentions reports whether one of vars occurs in t.
func mentions(t Tuple, vars ...*TVar) bool {
	found := false
	eachVar(t, func(v *TVar) {
		for _, w := range vars {
			found = found || v.ID == w.ID
		}
	})
	return found
}

// A mapper rewrites a U-expression or a normal form copy-on-write: each
// method returns its input itself when nothing below it changed, so a map
// that changes nothing allocates nothing, and a walk is a map whose hooks
// return what they are given. The positions a mapper offers are the tuple
// arguments of the atoms — Rel's, BEq's two, BPred's and BIsNull's — and the
// variables of every binder, a Sum or a normal-form Term, in source order.
type mapper struct {
	// tuple rewrites each tuple argument as a whole; nil keeps them. It does
	// not look at binders: lemma rewrites and walks see every argument.
	tuple func(Tuple) Tuple
	// sym rewrites every symbol: relations, predicates, attribute lists, and
	// the scope of every variable, binders' included. nil keeps them.
	sym func(template.Sym) template.Sym
	// sub replaces variables by tuples, simultaneously. This is the one
	// mapping with a binder rule: below a Sum or Term that binds one of its
	// variables, that variable is not replaced.
	sub map[int]Tuple
	// bind is called with the variables of each binder entered; nil skips.
	bind func([]*TVar)

	hidden *binder // the binders around the position that rebind variables of sub
}

// binder is a chain of binders' variables, innermost first. It lives on the
// mapper's call stack, as does the mapper that carries it.
type binder struct {
	vars []*TVar
	up   *binder
}

// arg maps one tuple argument.
func (m *mapper) arg(t Tuple) Tuple {
	if m.sym != nil {
		t = m.symbols(t)
	}
	if m.sub != nil {
		t = m.substitute(t)
	}
	if m.tuple != nil {
		t = m.tuple(t)
	}
	return t
}

func (m *mapper) symbols(t Tuple) Tuple { return mapTuple(t, m.symbols, m.sym, nil) }

func (m *mapper) substitute(t Tuple) Tuple {
	if v, ok := t.(*TVar); ok {
		if r, ok := m.sub[v.ID]; ok && !m.hides(v.ID) {
			return r
		}
	}
	return MapTuple(t, m.substitute, nil)
}

func (m *mapper) hides(id int) bool {
	for b := m.hidden; b != nil; b = b.up {
		for _, v := range b.vars {
			if v.ID == id {
				return true
			}
		}
	}
	return false
}

// enter is called with the variables of a binder before its body is mapped:
// it calls bind and reports whether vars rebinds a variable of sub, which the
// body must then hide. (The caller builds that body mapper in its own frame:
// anything of m stored elsewhere would move every hook to the heap.)
func (m *mapper) enter(vars []*TVar) bool {
	if m.bind != nil {
		m.bind(vars)
	}
	for _, v := range vars {
		if _, ok := m.sub[v.ID]; ok {
			return true
		}
	}
	return false
}

// binderVar maps a variable of a binder: only its scope can change.
func (m *mapper) binderVar(v *TVar) *TVar {
	if m.sym == nil {
		return v
	}
	return mapTuple(v, nil, m.sym, nil).(*TVar)
}

// factor maps a normal-form factor, descending into the normal form under a
// NotNF or SquashNF.
func (m *mapper) factor(f Factor) Factor {
	switch x := f.(type) {
	case *Rel:
		if rel, t := m.relSym(x.Rel), m.arg(x.T); rel != x.Rel || t != x.T {
			return &Rel{Rel: rel, T: t}
		}
	case *Bracket:
		var b Bool
		switch y := x.B.(type) {
		case *BEq:
			if l, r := m.arg(y.L), m.arg(y.R); l != y.L || r != y.R {
				b = &BEq{L: l, R: r}
			}
		case *BPred:
			if p, t := m.relSym(y.Pred), m.arg(y.T); p != y.Pred || t != y.T {
				b = &BPred{Pred: p, T: t}
			}
		case *BIsNull:
			if t := m.arg(y.T); t != y.T {
				b = &BIsNull{T: t}
			}
		}
		if b != nil {
			return &Bracket{B: b}
		}
	case *NotNF:
		if nf := m.nf(x.NF); nf != x.NF {
			return &NotNF{NF: nf}
		}
	case *SquashNF:
		if nf := m.nf(x.NF); nf != x.NF {
			return &SquashNF{NF: nf}
		}
	}
	return f
}

// relSym maps a relation or predicate symbol.
func (m *mapper) relSym(s template.Sym) template.Sym {
	if m.sym == nil {
		return s
	}
	return m.sym(s)
}

// factors maps a product of factors; ok reports a change.
func (m *mapper) factors(fs []Factor) ([]Factor, bool) { return mapSlice(fs, m.factor) }

func (m *mapper) nf(nf *NF) *NF {
	if terms, ok := mapSlice(nf.Terms, m.term); ok {
		return &NF{Terms: terms}
	}
	return nf
}

// term maps a summand, which binds its variables.
func (m *mapper) term(t *Term) *Term {
	body, inner := m, *m
	if m.enter(t.Vars) {
		inner.hidden = &binder{vars: t.Vars, up: m.hidden}
		body = &inner
	}
	vars, vok := mapSlice(t.Vars, m.binderVar)
	fs, fok := body.factors(t.Factors)
	if vok || fok {
		return &Term{Vars: vars, Factors: fs}
	}
	return t
}

// expr maps an expression; a Sum binds its variables.
func (m *mapper) expr(e Expr) Expr {
	switch x := e.(type) {
	case *Rel, *Bracket:
		return m.factor(e.(Factor)).(Expr)
	case *Not:
		if in := m.expr(x.E); in != x.E {
			return &Not{E: in}
		}
	case *Squash:
		if in := m.expr(x.E); in != x.E {
			return &Squash{E: in}
		}
	case *Sum:
		body, inner := m, *m
		if m.enter(x.Vars) {
			inner.hidden = &binder{vars: x.Vars, up: m.hidden}
			body = &inner
		}
		vars, vok := mapSlice(x.Vars, m.binderVar)
		if in := body.expr(x.E); vok || in != x.E {
			return &Sum{Vars: vars, E: in}
		}
	case *Mul:
		if fs, ok := mapSlice(x.Fs, m.expr); ok {
			return &Mul{Fs: fs}
		}
	case *Add:
		if ts, ok := mapSlice(x.Ts, m.expr); ok {
			return &Add{Ts: ts}
		}
	case *Const:
	}
	return e
}

// mapSlice applies fn to each element of s in order and returns s itself
// when fn returned every element unchanged, otherwise a copy holding the
// results; ok reports which.
func mapSlice[T comparable](s []T, fn func(T) T) (out []T, ok bool) {
	for i, x := range s {
		y := fn(x)
		if y != x && out == nil {
			out = slices.Clone(s)
		}
		if out != nil {
			out[i] = y
		}
	}
	if out == nil {
		return s, false
	}
	return out, true
}

// mapTerm applies a lemma's rewrite of tuple terms to every tuple argument of
// t's factors, nested normal forms included; ok reports a change.
func mapTerm(t *Term, fn func(Tuple) Tuple) (*Term, bool) {
	m := mapper{tuple: fn}
	if fs, ok := m.factors(t.Factors); ok {
		return &Term{Vars: t.Vars, Factors: fs}, true
	}
	return nil, false
}

// SubstFactors replaces the variables of sub in fs, simultaneously; binders
// inside nested normal forms hide the variables they rebind. fs itself comes
// back when nothing changed.
func SubstFactors(fs []Factor, sub map[int]Tuple) []Factor {
	m := mapper{sub: sub}
	out, _ := m.factors(fs)
	return out
}

// factorUses reports whether one of vars occurs in f, at any depth; binders
// are not consulted.
func factorUses(f Factor, vars ...*TVar) bool {
	used := false
	m := mapper{tuple: func(t Tuple) Tuple {
		used = used || mentions(t, vars...)
		return t
	}}
	m.factor(f)
	return used
}
