package intern

import (
	"slices"

	"wetune/internal/fol"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// This file replaces the solver's tree-rebuilding substitution walkers:
// inputs must be canonical, results are canonical, unchanged subtrees are
// returned as the same pointer, and every (node, var, replacement) triple is
// memoized on pointer identity — quantifier instantiation re-derives the same
// instances across rounds, so the memo converts the second round's work into
// map hits. The structure is fol's and uexpr's copy-on-write traversals; what
// is the pool's is the memo, the rebuilding through its constructors and the
// rule at a variable.

// subst is the substitution of variable id by repl in flight. Its mapper's
// hooks are method values made once per pool, in NewPool: a substitution
// runs on this struct, not on closures made per node.
type subst struct {
	p    *Pool
	id   int
	repl uexpr.Tuple
	m    fol.Mapper
}

func (s *subst) formula(f fol.Formula) fol.Formula { return s.p.SubstFormula(f, s.id, s.repl) }
func (s *subst) term(t fol.Term) fol.Term          { return s.p.SubstTerm(t, s.id, s.repl) }
func (s *subst) tuple(t uexpr.Tuple) uexpr.Tuple   { return s.p.SubstTupleVar(t, s.id, s.repl) }

// binds is the binder rule: a quantifier over the variable hides its body.
func (s *subst) binds(vars []*uexpr.TVar) bool {
	return slices.ContainsFunc(vars, func(v *uexpr.TVar) bool { return v.ID == s.id })
}

// SubstFormula substitutes tuple variable id with the canonical ground term
// repl everywhere in the canonical formula f, including inside integer terms
// and ITE conditions.
func (p *Pool) SubstFormula(f fol.Formula, id int, repl uexpr.Tuple) fol.Formula {
	k := substKey{node: f, id: id, repl: repl}
	r, ok := p.sfMemo[k]
	if !ok {
		p.sub.id, p.sub.repl = id, repl
		r = p.sub.m.MapFormula(f, p)
		p.sfMemo[k] = r
	}
	return r
}

// SubstTerm substitutes tuple variable id with repl in a canonical integer
// term.
func (p *Pool) SubstTerm(t fol.Term, id int, repl uexpr.Tuple) fol.Term {
	k := substKey{node: t, id: id, repl: repl}
	r, ok := p.smMemo[k]
	if !ok {
		p.sub.id, p.sub.repl = id, repl
		r = p.sub.m.MapTerm(t, p)
		p.smMemo[k] = r
	}
	return r
}

// SubstTupleVar substitutes tuple variable id with repl in a canonical tuple
// term.
func (p *Pool) SubstTupleVar(t uexpr.Tuple, id int, repl uexpr.Tuple) uexpr.Tuple {
	k := substKey{node: t, id: id, repl: repl}
	r, ok := p.stMemo[k]
	if !ok {
		r = repl
		if v, isVar := t.(*uexpr.TVar); !isVar || v.ID != id {
			p.sub.id, p.sub.repl = id, repl
			r = uexpr.MapTuple(t, p.sub.m.Tuple, p.mkTuple)
		}
		p.stMemo[k] = r
	}
	return r
}

// mkTuple is uexpr.MapTuple's rebuild through the pool.
func (p *Pool) mkTuple(attrs template.Sym, l, r uexpr.Tuple) uexpr.Tuple {
	if r == nil {
		return p.MkAttr(attrs, l)
	}
	return p.MkConcat(l, r)
}
