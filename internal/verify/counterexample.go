package verify

import (
	"context"
	"fmt"
	"math/rand"

	"wetune/internal/constraint"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// Counterexample search: enumerate small random interpretations (finite
// tuple domains, random relation multiplicities, attribute functions and
// predicates) that satisfy the rule's constraints, and evaluate both
// U-expressions on every domain tuple. A disagreement is a concrete witness
// that the rule is incorrect — the positive-refutation counterpart to the
// conservative rejection of the SMT path (§5.1.2's "incorrect rules" study).

// value is an element of the finite tuple domain: an atom (including the
// distinguished NULL atom) or a pair (for join concatenations).
type value struct {
	id   int // >= 0 atom id; -1 NULL; -2 pair
	l, r *value
}

func (v *value) key() string {
	switch v.id {
	case -2:
		return "(" + v.l.key() + "." + v.r.key() + ")"
	case -1:
		return "null"
	default:
		return fmt.Sprintf("v%d", v.id)
	}
}

func (v *value) isNull() bool { return v.id == -1 }

// interp is one finite interpretation.
type interp struct {
	domain []*value
	rels   map[template.Sym]map[string]int
	attrs  map[template.Sym]map[string]*value
	preds  map[template.Sym]map[string]bool
}

// RefuteOptions bounds the search.
type RefuteOptions struct {
	Trials int
	Atoms  int // non-NULL atoms in the base domain
	Seed   int64
	// Context, when non-nil, cancels the trial loop early.
	Context context.Context
}

// DefaultRefuteOptions uses 400 trials over 2-atom domains.
func DefaultRefuteOptions() RefuteOptions { return RefuteOptions{Trials: 400, Atoms: 2, Seed: 1} }

// Refute searches for a counterexample to the rule. It returns true with a
// witness description when the rule is demonstrably incorrect.
func Refute(src, dest *template.Node, cs *constraint.Set, opts RefuteOptions) (bool, string) {
	u := constraint.Unify(cs)
	reps := u.Reps()
	srcU := src.Substitute(reps)
	destU := dest.Substitute(reps)

	es, vs, err := uexpr.Translate(srcU)
	if err != nil {
		return false, ""
	}
	ed, vd, err := uexpr.Translate(destU)
	if err != nil {
		return false, ""
	}
	ed = uexpr.SubstTuple(ed, vd.ID, vs)

	// Collect the symbols needing interpretation.
	var rels, attrs, preds []template.Sym
	seen := map[template.Sym]bool{}
	for _, t := range []*template.Node{srcU, destU} {
		for _, s := range t.Symbols() {
			if seen[s] {
				continue
			}
			seen[s] = true
			switch s.Kind {
			case template.KRel:
				rels = append(rels, s)
			case template.KAttrs:
				attrs = append(attrs, s)
			case template.KPred:
				preds = append(preds, s)
			}
		}
	}

	joinCount := 0
	for _, t := range []*template.Node{srcU, destU} {
		t.Walk(func(n *template.Node) {
			switch n.Op {
			case template.OpIJoin, template.OpLJoin, template.OpRJoin:
				joinCount++
			}
		})
	}
	depth := 0
	if joinCount > 0 {
		depth = 1
	}

	residual := u.Residual()
	rng := rand.New(rand.NewSource(opts.Seed))
	for trial := 0; trial < opts.Trials; trial++ {
		if opts.Context != nil && opts.Context.Err() != nil {
			return false, ""
		}
		in := randomInterp(rng, opts.Atoms, depth, rels, attrs, preds)
		if !in.satisfies(residual) {
			continue
		}
		for _, t := range in.domain {
			sv := in.eval(es, map[int]*value{vs.ID: t})
			dv := in.eval(ed, map[int]*value{vs.ID: t})
			if sv != dv {
				return true, fmt.Sprintf("tuple %s: src multiplicity %d, dest %d (trial %d)",
					t.key(), sv, dv, trial)
			}
		}
	}
	return false, ""
}

func randomInterp(rng *rand.Rand, atoms, depth int, rels, attrs, preds []template.Sym) *interp {
	in := &interp{
		rels:  map[template.Sym]map[string]int{},
		attrs: map[template.Sym]map[string]*value{},
		preds: map[template.Sym]map[string]bool{},
	}
	var base []*value
	for i := 0; i < atoms; i++ {
		base = append(base, &value{id: i})
	}
	base = append(base, &value{id: -1}) // the distinguished NULL tuple
	in.domain = append(in.domain, base...)
	if depth >= 1 {
		for _, l := range base {
			for _, r := range base {
				in.domain = append(in.domain, &value{id: -2, l: l, r: r})
			}
		}
	}
	for _, r := range rels {
		m := map[string]int{}
		for _, v := range in.domain {
			m[v.key()] = rng.Intn(3)
		}
		in.rels[r] = m
	}
	for _, a := range attrs {
		m := map[string]*value{}
		for _, v := range in.domain {
			m[v.key()] = in.domain[rng.Intn(len(in.domain))]
		}
		// Projection is idempotent: a(a(t)) = a(t).
		for _, v := range in.domain {
			w := m[v.key()]
			m[w.key()] = w
		}
		in.attrs[a] = m
	}
	for _, p := range preds {
		m := map[string]bool{}
		for _, v := range in.domain {
			m[v.key()] = rng.Intn(2) == 0
		}
		in.preds[p] = m
	}
	return in
}

func (in *interp) attrOf(a template.Sym, v *value) *value {
	m := in.attrs[a]
	if m == nil {
		return v
	}
	if out, ok := m[v.key()]; ok {
		return out
	}
	// Unseen (nested) values project to NULL deterministically.
	return &value{id: -1}
}

func (in *interp) relOf(r template.Sym, v *value) int {
	if m, ok := in.rels[r]; ok {
		return m[v.key()]
	}
	return 0
}

func (in *interp) predOf(p template.Sym, v *value) bool {
	if m, ok := in.preds[p]; ok {
		return m[v.key()]
	}
	return false
}

// satisfies checks the residual constraints against the interpretation.
func (in *interp) satisfies(cs *constraint.Set) bool {
	for _, c := range cs.Items() {
		switch c.Kind {
		case constraint.SubAttrs:
			a1, a2 := c.Syms[0], c.Syms[1]
			if a2.Kind == template.KAttrsOf {
				// a_r(t) is modeled as the identity on r's tuples; the
				// SubAttrs(a, a_r) condition is then vacuous here.
				continue
			}
			for _, t := range in.domain {
				if in.attrOf(a1, t) != in.attrOf(a1, in.attrOf(a2, t)) {
					return false
				}
			}
		case constraint.Unique:
			r, a := c.Syms[0], c.Syms[1]
			for _, t := range in.domain {
				if in.relOf(r, t) > 1 {
					return false
				}
			}
			for _, t := range in.domain {
				for _, t2 := range in.domain {
					if t != t2 && in.relOf(r, t) > 0 && in.relOf(r, t2) > 0 &&
						in.attrOf(a, t) == in.attrOf(a, t2) {
						return false
					}
				}
			}
		case constraint.NotNull:
			r, a := c.Syms[0], c.Syms[1]
			for _, t := range in.domain {
				if in.relOf(r, t) > 0 && in.attrOf(a, t).isNull() {
					return false
				}
			}
		case constraint.RefAttrs:
			r1, a1, r2, a2 := c.Syms[0], c.Syms[1], c.Syms[2], c.Syms[3]
			for _, t1 := range in.domain {
				if in.relOf(r1, t1) == 0 || in.attrOf(a1, t1).isNull() {
					continue
				}
				found := false
				for _, t2 := range in.domain {
					if in.relOf(r2, t2) > 0 && !in.attrOf(a2, t2).isNull() &&
						in.attrOf(a1, t1) == in.attrOf(a2, t2) {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
	}
	return true
}

// eval computes the U-expression value under the interpretation with the
// given variable binding. Summations range over the finite domain.
func (in *interp) eval(e uexpr.Expr, env map[int]*value) int {
	switch x := e.(type) {
	case *uexpr.Const:
		return x.N
	case *uexpr.Rel:
		return in.relOf(x.Rel, in.evalTuple(x.T, env))
	case *uexpr.Bracket:
		if in.evalBool(x.B, env) {
			return 1
		}
		return 0
	case *uexpr.Not:
		if in.eval(x.E, env) > 0 {
			return 0
		}
		return 1
	case *uexpr.Squash:
		if in.eval(x.E, env) > 0 {
			return 1
		}
		return 0
	case *uexpr.Sum:
		return in.evalSum(x.Vars, x.E, env)
	case *uexpr.Mul:
		out := 1
		for _, f := range x.Fs {
			out *= in.eval(f, env)
			if out == 0 {
				return 0
			}
		}
		return out
	case *uexpr.Add:
		out := 0
		for _, t := range x.Ts {
			out += in.eval(t, env)
		}
		return out
	}
	panic(fmt.Sprintf("verify: eval on %T", e))
}

func (in *interp) evalSum(vars []*uexpr.TVar, body uexpr.Expr, env map[int]*value) int {
	if len(vars) == 0 {
		return in.eval(body, env)
	}
	total := 0
	v := vars[0]
	for _, t := range in.domain {
		env[v.ID] = t
		total += in.evalSum(vars[1:], body, env)
	}
	delete(env, v.ID)
	return total
}

func (in *interp) evalTuple(t uexpr.Tuple, env map[int]*value) *value {
	switch x := t.(type) {
	case *uexpr.TVar:
		if v, ok := env[x.ID]; ok {
			return v
		}
		return &value{id: -1}
	case *uexpr.TAttr:
		return in.attrOf(x.Attrs, in.evalTuple(x.T, env))
	case *uexpr.TConcat:
		return in.pair(in.evalTuple(x.L, env), in.evalTuple(x.R, env))
	}
	panic("unreachable")
}

// pair interns pairs through the domain so pointer equality works.
func (in *interp) pair(l, r *value) *value {
	for _, v := range in.domain {
		if v.id == -2 && v.l == l && v.r == r {
			return v
		}
	}
	return &value{id: -2, l: l, r: r}
}

func (in *interp) evalBool(b uexpr.Bool, env map[int]*value) bool {
	switch x := b.(type) {
	case *uexpr.BEq:
		return in.evalTuple(x.L, env) == in.evalTuple(x.R, env)
	case *uexpr.BPred:
		return in.predOf(x.Pred, in.evalTuple(x.T, env))
	case *uexpr.BIsNull:
		return in.evalTuple(x.T, env).isNull()
	}
	panic("unreachable")
}
