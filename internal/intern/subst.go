package intern

import (
	"slices"

	"wetune/internal/fol"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// This file replaces the solver's tree-rebuilding substitution walkers:
// inputs must be canonical, results are canonical, and unchanged subtrees are
// returned as the same pointer. Nothing is memoized: rebuilding a changed
// node goes through the pool's constructors, whose hash-consing already
// returns the one canonical node, so a repeated substitution costs a walk of
// probes and makes nothing new. The structure is fol's and uexpr's
// copy-on-write traversals; what is the pool's is the rebuilding through its
// constructors and the rule at a variable.

// subst is the substitution of variable id by repl in flight. Its mapper's
// hooks are method values made once per pool, in NewPool: a substitution
// runs on this struct, not on closures made per node.
type subst struct {
	p    *Pool
	id   int
	repl uexpr.Tuple
	m    fol.Mapper
}

func (s *subst) formula(f fol.Formula) fol.Formula { return s.m.MapFormula(f, s.p) }
func (s *subst) term(t fol.Term) fol.Term          { return s.m.MapTerm(t, s.p) }

func (s *subst) tuple(t uexpr.Tuple) uexpr.Tuple {
	if v, isVar := t.(*uexpr.TVar); isVar && v.ID == s.id {
		return s.repl
	}
	return uexpr.MapTuple(t, s.m.Tuple, s.p.mkTuple)
}

// binds is the binder rule: a quantifier over the variable hides its body.
func (s *subst) binds(vars []*uexpr.TVar) bool {
	return slices.ContainsFunc(vars, func(v *uexpr.TVar) bool { return v.ID == s.id })
}

// SubstFormula substitutes tuple variable id with the canonical ground term
// repl everywhere in the canonical formula f, including inside integer terms
// and ITE conditions.
func (p *Pool) SubstFormula(f fol.Formula, id int, repl uexpr.Tuple) fol.Formula {
	p.sub.id, p.sub.repl = id, repl
	return p.sub.m.MapFormula(f, p)
}

// SubstTerm substitutes tuple variable id with repl in a canonical integer
// term.
func (p *Pool) SubstTerm(t fol.Term, id int, repl uexpr.Tuple) fol.Term {
	p.sub.id, p.sub.repl = id, repl
	return p.sub.m.MapTerm(t, p)
}

// SubstTupleVar substitutes tuple variable id with repl in a canonical tuple
// term.
func (p *Pool) SubstTupleVar(t uexpr.Tuple, id int, repl uexpr.Tuple) uexpr.Tuple {
	p.sub.id, p.sub.repl = id, repl
	return p.sub.tuple(t)
}

// mkTuple is uexpr.MapTuple's rebuild through the pool.
func (p *Pool) mkTuple(attrs template.Sym, l, r uexpr.Tuple) uexpr.Tuple {
	if r == nil {
		return p.MkAttr(attrs, l)
	}
	return p.MkConcat(l, r)
}
