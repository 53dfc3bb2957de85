package uexpr

import (
	"fmt"
	"sort"
	"strings"

	"wetune/internal/template"
)

// Env carries the constraint-derived facts the normalizer may use as rewrite
// lemmas. The verifier populates it from the closure of a rule's constraint
// set after symbol unification.
type Env struct {
	// AttrSource[a] lists relations r with SubAttrs(a, a_r): the attributes
	// of a come from r. Used to resolve a(x.y) on concatenated tuples.
	AttrSource map[template.Sym]map[template.Sym]bool
	// SubPairs holds every SubAttrs(a1, a2) pair (including a2 = a_r),
	// enabling the composition a1(a2(t)) = a1(t).
	SubPairs map[[2]template.Sym]bool
	// UniqueKey holds (r, a) pairs with Unique(r, a).
	UniqueKey map[[2]template.Sym]bool
	// NotNull holds (r, a) pairs with NotNull(r, a).
	NotNull map[[2]template.Sym]bool
	// Ref holds RefAttrs(r1, a1, r2, a2) tuples.
	Ref map[[4]template.Sym]bool
}

// EmptyEnv returns an Env with no facts.
func EmptyEnv() *Env {
	return &Env{
		AttrSource: map[template.Sym]map[template.Sym]bool{},
		SubPairs:   map[[2]template.Sym]bool{},
		UniqueKey:  map[[2]template.Sym]bool{},
		NotNull:    map[[2]template.Sym]bool{},
		Ref:        map[[4]template.Sym]bool{},
	}
}

func (e *Env) uniqueRel(r template.Sym) bool {
	for k := range e.UniqueKey {
		if k[0] == r {
			return true
		}
	}
	return false
}

// NF is the normal form: a sum (Add) of terms.
type NF struct {
	Terms []*Term
}

// Term is one summand: an unbounded summation over Vars of a product of
// Factors. Factors are *Rel, *Bracket, *NotNF or *SquashNF.
type Term struct {
	Vars    []*TVar
	Factors []Factor
}

// Factor is a multiplicative factor in normal form.
type Factor interface{ factor() }

func (*Rel) factor()      {}
func (*Bracket) factor()  {}
func (*NotNF) factor()    {}
func (*SquashNF) factor() {}

// NotNF is not(e) with a normalized body.
type NotNF struct{ NF *NF }

// SquashNF is ||e|| with a normalized body.
type SquashNF struct{ NF *NF }

// Normalize converts a U-expression to normal form under the environment's
// rewrite lemmas, applying them to fixpoint.
func Normalize(e Expr, env *Env) *NF {
	n := &normalizer{env: env, freshID: maxVarID(e) + 1}
	nf := n.norm(e)
	canon := nf.Canon()
	for i := 0; i < 12; i++ {
		nf = n.simplify(nf)
		next := nf.Canon()
		if next == canon {
			break
		}
		canon = next
	}
	return nf
}

func maxVarID(e Expr) int {
	max := 0
	see := func(v *TVar) {
		if v.ID > max {
			max = v.ID
		}
	}
	m := mapper{
		tuple: func(t Tuple) Tuple { eachVar(t, see); return t },
		bind: func(vars []*TVar) {
			for _, v := range vars {
				see(v)
			}
		},
	}
	m.expr(e)
	return max
}

type normalizer struct {
	env     *Env
	freshID int
}

func (n *normalizer) fresh(scope []template.Sym) *TVar {
	v := &TVar{ID: n.freshID, Scope: scope}
	n.freshID++
	return v
}

// norm converts an arbitrary expression to NF (flattening, distributing
// products over sums, hoisting summations).
func (n *normalizer) norm(e Expr) *NF {
	switch x := e.(type) {
	case *Const:
		if x.N == 0 {
			return &NF{}
		}
		nf := &NF{}
		for i := 0; i < x.N; i++ {
			nf.Terms = append(nf.Terms, &Term{})
		}
		return nf
	case *Rel:
		return &NF{Terms: []*Term{{Factors: []Factor{x}}}}
	case *Bracket:
		if eq, ok := x.B.(*BEq); ok && tupleString(eq.L) == tupleString(eq.R) {
			return &NF{Terms: []*Term{{}}} // [x = x] = 1
		}
		return &NF{Terms: []*Term{{Factors: []Factor{x}}}}
	case *Not:
		inner := n.norm(x.E)
		return n.notOf(inner)
	case *Squash:
		inner := n.norm(x.E)
		return n.squashOf(inner)
	case *Sum:
		body := n.norm(x.E)
		out := &NF{Terms: make([]*Term, 0, len(body.Terms))}
		for _, t := range body.Terms {
			vars := make([]*TVar, 0, len(x.Vars)+len(t.Vars))
			vars = append(vars, x.Vars...)
			vars = append(vars, t.Vars...)
			out.Terms = append(out.Terms, &Term{Vars: vars, Factors: t.Factors})
		}
		return out
	case *Mul:
		acc := &NF{Terms: []*Term{{}}}
		for _, f := range x.Fs {
			fn := n.norm(f)
			acc = n.crossProduct(acc, fn)
		}
		return acc
	case *Add:
		out := &NF{}
		for _, t := range x.Ts {
			tn := n.norm(t)
			out.Terms = append(out.Terms, tn.Terms...)
		}
		return out
	}
	panic(fmt.Sprintf("uexpr: norm on %T", e))
}

// crossProduct multiplies two NFs, renaming bound variables apart. This is
// the normalizer's allocation hot spot (every Mul distributes through it), so
// slices are built at exact capacity in one pass.
func (n *normalizer) crossProduct(a, b *NF) *NF {
	out := &NF{Terms: make([]*Term, 0, len(a.Terms)*len(b.Terms))}
	for _, ta := range a.Terms {
		for _, tb := range b.Terms {
			tb2 := n.renameApart(tb, ta)
			vars := make([]*TVar, 0, len(ta.Vars)+len(tb2.Vars))
			vars = append(vars, ta.Vars...)
			vars = append(vars, tb2.Vars...)
			factors := make([]Factor, 0, len(ta.Factors)+len(tb2.Factors))
			factors = append(factors, ta.Factors...)
			factors = append(factors, tb2.Factors...)
			out.Terms = append(out.Terms, &Term{Vars: vars, Factors: factors})
		}
	}
	return out
}

// renameApart alpha-renames t's bound variables that clash with other's.
// All clashing variables are renamed in one simultaneous substitution walk
// (fresh IDs never collide with remaining clashes, so this equals the
// variable-at-a-time rewrite it replaces); a clash-free term is returned
// unchanged.
func (n *normalizer) renameApart(t *Term, other *Term) *Term {
	used := map[int]bool{}
	for _, v := range other.Vars {
		used[v.ID] = true
	}
	var ren map[int]Tuple
	for _, v := range t.Vars {
		if used[v.ID] {
			if ren == nil {
				ren = map[int]Tuple{}
			}
			if _, ok := ren[v.ID]; !ok {
				ren[v.ID] = n.fresh(v.Scope)
			}
		}
	}
	if ren == nil {
		return t
	}
	vars := make([]*TVar, len(t.Vars))
	for i, v := range t.Vars {
		if nv, ok := ren[v.ID]; ok {
			vars[i] = nv.(*TVar)
		} else {
			vars[i] = v
		}
	}
	return &Term{Vars: vars, Factors: SubstFactors(t.Factors, ren)}
}

// notOf builds not(nf) with basic simplifications.
func (n *normalizer) notOf(nf *NF) *NF {
	if len(nf.Terms) == 0 {
		return &NF{Terms: []*Term{{}}} // not(0) = 1
	}
	if isConstOne(nf) {
		return &NF{} // not(positive constant) = 0
	}
	// not(||e||) = not(e); not(not(e)) = ||e||.
	if inner, ok := singleFactor(nf); ok {
		switch f := inner.(type) {
		case *SquashNF:
			return &NF{Terms: []*Term{{Factors: []Factor{&NotNF{NF: f.NF}}}}}
		case *NotNF:
			return n.squashOf(f.NF)
		}
	}
	return &NF{Terms: []*Term{{Factors: []Factor{&NotNF{NF: nf}}}}}
}

// squashOf builds ||nf|| with simplifications: squash distributes over
// products (||x*y|| = ||x||*||y||), is idempotent, and fixes 0/1 factors.
func (n *normalizer) squashOf(nf *NF) *NF {
	if len(nf.Terms) == 0 {
		return &NF{}
	}
	if isConstOne(nf) || allTermsConstPositive(nf) {
		return &NF{Terms: []*Term{{}}}
	}
	if len(nf.Terms) == 1 {
		t := nf.Terms[0]
		if len(t.Vars) == 0 {
			// ||f1*...*fk|| = ||f1||*...*||fk||.
			out := &Term{}
			for _, f := range t.Factors {
				out.Factors = append(out.Factors, n.squashFactor(f))
			}
			return &NF{Terms: []*Term{out}}
		}
		// Pull factors independent of the summation variables out of the
		// squash: ||sum_y m*g|| = ||m|| * ||sum_y g||.
		var indep, dep []Factor
		for _, f := range t.Factors {
			if factorUses(f, t.Vars...) {
				dep = append(dep, f)
			} else {
				indep = append(indep, f)
			}
		}
		if len(indep) > 0 {
			out := &Term{}
			for _, f := range indep {
				out.Factors = append(out.Factors, n.squashFactor(f))
			}
			inner := &NF{Terms: []*Term{{Vars: t.Vars, Factors: dep}}}
			out.Factors = append(out.Factors, &SquashNF{NF: inner})
			return &NF{Terms: []*Term{out}}
		}
	}
	return &NF{Terms: []*Term{{Factors: []Factor{&SquashNF{NF: nf}}}}}
}

func (n *normalizer) squashFactor(f Factor) Factor {
	switch x := f.(type) {
	case *Bracket, *NotNF:
		return x // already 0/1
	case *SquashNF:
		return x
	case *Rel:
		if n.env.uniqueRel(x.Rel) {
			return x // r(t) <= 1 under a Unique constraint
		}
		return &SquashNF{NF: &NF{Terms: []*Term{{Factors: []Factor{x}}}}}
	}
	panic("unreachable")
}

func singleFactor(nf *NF) (Factor, bool) {
	if len(nf.Terms) == 1 && len(nf.Terms[0].Vars) == 0 && len(nf.Terms[0].Factors) == 1 {
		return nf.Terms[0].Factors[0], true
	}
	return nil, false
}

func isConstOne(nf *NF) bool {
	return len(nf.Terms) == 1 && len(nf.Terms[0].Vars) == 0 && len(nf.Terms[0].Factors) == 0
}

func allTermsConstPositive(nf *NF) bool {
	if len(nf.Terms) == 0 {
		return false
	}
	for _, t := range nf.Terms {
		if len(t.Vars) != 0 || len(t.Factors) != 0 {
			return false
		}
	}
	return true
}

// tupleString renders a tuple term for syntactic comparison.
func tupleString(t Tuple) string { return renderTuple(t, nil) }

func renderTuple(t Tuple, names map[int]string) string {
	switch x := t.(type) {
	case *TVar:
		if names != nil {
			if nm, ok := names[x.ID]; ok {
				return nm
			}
		}
		return fmt.Sprintf("t%d", x.ID)
	case *TAttr:
		return fmt.Sprintf("%s(%s)", x.Attrs, renderTuple(x.T, names))
	case *TConcat:
		return fmt.Sprintf("(%s.%s)", renderTuple(x.L, names), renderTuple(x.R, names))
	}
	panic("unreachable")
}

func renderBool(b Bool, names map[int]string) string {
	switch x := b.(type) {
	case *BEq:
		l, r := renderTuple(x.L, names), renderTuple(x.R, names)
		if l > r {
			l, r = r, l
		}
		return l + " = " + r
	case *BPred:
		return fmt.Sprintf("%s(%s)", x.Pred, renderTuple(x.T, names))
	case *BIsNull:
		return fmt.Sprintf("IsNull(%s)", renderTuple(x.T, names))
	}
	panic("unreachable")
}

func renderFactor(f Factor, names map[int]string) string {
	switch x := f.(type) {
	case *Rel:
		return fmt.Sprintf("%s(%s)", x.Rel, renderTuple(x.T, names))
	case *Bracket:
		return "[" + renderBool(x.B, names) + "]"
	case *NotNF:
		return "not(" + renderNF(x.NF, names) + ")"
	case *SquashNF:
		return "||" + renderNF(x.NF, names) + "||"
	}
	panic("unreachable")
}

func renderNF(nf *NF, names map[int]string) string {
	if len(nf.Terms) == 0 {
		return "0"
	}
	parts := make([]string, len(nf.Terms))
	for i, t := range nf.Terms {
		parts[i] = renderTermFixed(t, names)
	}
	sort.Strings(parts)
	return strings.Join(parts, " + ")
}

// renderTermFixed renders a term under a fixed outer naming, choosing the
// minimal renaming for the term's own bound variables by permutation.
func renderTermFixed(t *Term, outer map[int]string) string {
	k := len(t.Vars)
	if k == 0 {
		return renderTermWith(t, outer)
	}
	if k > 5 {
		// Too many variables to permute; fall back to positional naming.
		names := cloneNames(outer)
		for i, v := range t.Vars {
			names[v.ID] = fmt.Sprintf("s%d", i)
		}
		return renderTermWith(t, names)
	}
	best := ""
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	permute(perm, 0, func(p []int) {
		names := cloneNames(outer)
		for i, v := range t.Vars {
			names[v.ID] = fmt.Sprintf("s%d", p[i])
		}
		s := renderTermWith(t, names)
		if best == "" || s < best {
			best = s
		}
	})
	return best
}

func renderTermWith(t *Term, names map[int]string) string {
	fs := make([]string, len(t.Factors))
	for i, f := range t.Factors {
		fs[i] = renderFactor(f, names)
	}
	sort.Strings(fs)
	vars := make([]string, len(t.Vars))
	for i, v := range t.Vars {
		nm := names[v.ID]
		if nm == "" {
			nm = v.String()
		}
		vars[i] = nm
	}
	sort.Strings(vars)
	prefix := ""
	if len(vars) > 0 {
		prefix = "sum{" + strings.Join(vars, ",") + "}"
	}
	return prefix + "(" + strings.Join(fs, " * ") + ")"
}

func cloneNames(m map[int]string) map[int]string {
	out := make(map[int]string, len(m)+4)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func permute(p []int, i int, fn func([]int)) {
	if i == len(p) {
		fn(p)
		return
	}
	for j := i; j < len(p); j++ {
		p[i], p[j] = p[j], p[i]
		permute(p, i+1, fn)
		p[i], p[j] = p[j], p[i]
	}
}

// Canon renders the NF canonically (bound variables alpha-normalized).
func (nf *NF) Canon() string { return renderNF(nf, map[int]string{}) }

// String renders the NF for debugging.
func (nf *NF) String() string { return nf.Canon() }

// FactorUsesVar reports whether the factor mentions the tuple variable.
// Exported for the FOL translation layer.
func FactorUsesVar(f Factor, id int) bool { return factorUses(f, &TVar{ID: id}) }
