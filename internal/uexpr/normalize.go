package uexpr

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"sync"

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
	nf, _ := n.fixpoint(n.norm(e))
	return nf
}

// fixpoint runs simplify rounds on nf until one reports no change, and
// returns the result and the rounds it ran. On every closure the size-2
// replay and the Table 7 rules prepare that takes at most two rounds; the
// cap of 12 is a safety bound.
func (n *normalizer) fixpoint(nf *NF) (*NF, int) {
	for round := 1; ; round++ {
		next, changed := n.simplify(nf)
		if !changed || round == 12 {
			return next, round
		}
		nf = next
	}
}

// normalizeRounds is Normalize, also returning the rounds it ran and the
// normal form one more round makes of the result, with whether that round
// reported a change. Tests read it; internal/verify's links to it.
func normalizeRounds(e Expr, env *Env) (nf *NF, rounds int, again *NF, changed bool) {
	n := &normalizer{env: env, freshID: maxVarID(e) + 1}
	nf, rounds = n.fixpoint(n.norm(e))
	again, changed = n.simplify(nf)
	return nf, rounds, again, changed
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
		if eq, ok := x.B.(*BEq); ok && sameTuple(eq.L, eq.R) {
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
			if len(t.Factors) == 1 && !n.atMostOne(t.Factors[0]) {
				// ||r(x)|| without a Unique constraint on r: nothing to
				// distribute, so nf itself stays under the squash.
				return &NF{Terms: []*Term{{Factors: []Factor{&SquashNF{NF: nf}}}}}
			}
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

// squashFactor builds ||f||: f itself when f is 0 or 1 everywhere.
func (n *normalizer) squashFactor(f Factor) Factor {
	if n.atMostOne(f) {
		return f
	}
	return &SquashNF{NF: &NF{Terms: []*Term{{Factors: []Factor{f}}}}}
}

// atMostOne reports whether f is 0 or 1 everywhere: a bracket, not(e),
// ||e||, or r(t) under a Unique constraint on r.
func (n *normalizer) atMostOne(f Factor) bool {
	r, ok := f.(*Rel)
	return !ok || n.env.uniqueRel(r.Rel)
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

// sameTuple reports whether a and b are the same tuple term: variables are
// equal by ID, their scopes ignored, and attribute lists by symbol. It is the
// normalizer's one tuple identity; text (tupleString) only puts tuples in
// order.
func sameTuple(a, b Tuple) bool {
	switch x := a.(type) {
	case *TVar:
		y, ok := b.(*TVar)
		return ok && x.ID == y.ID
	case *TAttr:
		y, ok := b.(*TAttr)
		return ok && x.Attrs == y.Attrs && sameTuple(x.T, y.T)
	case *TConcat:
		y, ok := b.(*TConcat)
		return ok && sameTuple(x.L, y.L) && sameTuple(x.R, y.R)
	}
	panic("unreachable")
}

// tupleString renders a tuple term, for ordering tuples.
func tupleString(t Tuple) string {
	r := newRenderer()
	r.tuple(t)
	return r.done()
}

// renderFactor renders a factor, the bound variables of nested terms
// alpha-normalized.
func renderFactor(f Factor) string {
	r := newRenderer()
	r.factor(f)
	return r.done()
}

// renderTermFixed renders a term canonically: its bound variables are named
// by rank.
func renderTermFixed(t *Term) string {
	r := newRenderer()
	r.termFixed(t)
	return r.done()
}

// Canon renders the NF canonically (bound variables alpha-normalized).
func (nf *NF) Canon() string {
	r := newRenderer()
	r.nf(nf)
	return r.done()
}

// String renders the NF for debugging.
func (nf *NF) String() string { return nf.Canon() }

// CanonicalTerms returns terms in the order Canon renders them, each with
// its bound variables listed by rank, the order Canon names them s0, s1, ...
// in (a copy where that differs from Vars). The FOL translation pairs terms
// and aligns summations by it.
func CanonicalTerms(terms []*Term) []*Term {
	r := newRenderer()
	out := make([]*Term, len(terms))
	for i, t := range terms {
		start := len(r.buf)
		r.rank(t)
		out[i] = t
		if !slices.EqualFunc(r.names, t.Vars, func(b binding, v *TVar) bool { return b.v == v }) {
			out[i] = &Term{Vars: make([]*TVar, len(t.Vars)), Factors: t.Factors}
			for j, b := range r.names {
				out[i].Vars[j] = b.v
			}
		}
		r.termWith(t)
		r.names = r.names[:0]
		r.part(start)
	}
	r.sortStable(0, func(i, j int) { out[i], out[j] = out[j], out[i] })
	r.spans = r.spans[:0]
	r.release()
	return out
}

// A renderer appends the text of normal forms to one buffer. Sorted lists —
// the terms of a sum, the factors and variables of a term, the sides of an
// equality — are rendered part after part at the end of the buffer and then
// put in order in place; the spans of the parts of every list in progress
// share one stack. names holds the bound variables being named, innermost
// last: a term pushes its own while it renders and pops them after.
// Renderers are pooled, so that a rendering allocates only its string.
type renderer struct {
	buf   []byte
	spans []span
	names []binding
	tmp   []byte // where a list is put in order
}

type span struct{ from, to int }

// binding names bound variable v s<n>. While a term ranks its variables, n
// is marked or unnamed.
type binding struct {
	v *TVar
	n int
}

const (
	unnamed = -1 // rendered s_
	marked  = -2 // rendered s*
)

var renderers = sync.Pool{New: func() any { return new(renderer) }}

func newRenderer() *renderer { return renderers.Get().(*renderer) }

// done returns the text rendered and the renderer to the pool.
func (r *renderer) done() string {
	s := string(r.buf)
	r.release()
	return s
}

// release returns the renderer to the pool.
func (r *renderer) release() {
	r.buf = r.buf[:0]
	renderers.Put(r)
}

func (r *renderer) sym(s template.Sym) {
	r.buf = append(r.buf, s.Kind.String()...)
	r.buf = strconv.AppendInt(r.buf, int64(s.ID), 10)
}

// variable renders v by the innermost binding of it, or as t<ID>.
func (r *renderer) variable(v *TVar) {
	for i := len(r.names) - 1; i >= 0; i-- {
		if b := r.names[i]; b.v.ID == v.ID {
			switch b.n {
			case unnamed:
				r.buf = append(r.buf, "s_"...)
			case marked:
				r.buf = append(r.buf, "s*"...)
			default:
				r.buf = append(r.buf, 's')
				r.buf = strconv.AppendInt(r.buf, int64(b.n), 10)
			}
			return
		}
	}
	r.buf = append(r.buf, 't')
	r.buf = strconv.AppendInt(r.buf, int64(v.ID), 10)
}

// part ends a list element that began at from.
func (r *renderer) part(from int) { r.spans = append(r.spans, span{from, len(r.buf)}) }

// sortParts puts the parts pushed since base, which start at from, in
// ascending byte order joined by sep, and pops them.
func (r *renderer) sortParts(from, base int, sep string) {
	parts := r.spans[base:]
	slices.SortFunc(parts, func(a, b span) int { return bytes.Compare(r.buf[a.from:a.to], r.buf[b.from:b.to]) })
	r.tmp = r.tmp[:0]
	for i, p := range parts {
		if i > 0 {
			r.tmp = append(r.tmp, sep...)
		}
		r.tmp = append(r.tmp, r.buf[p.from:p.to]...)
	}
	r.buf = append(r.buf[:from], r.tmp...)
	r.spans = r.spans[:base]
}

// sortStable puts the spans pushed since base in ascending byte order of
// their text, equal texts in the order pushed, and calls swap(i, j) with
// their indices whenever it swaps two, so that a list beside them follows.
func (r *renderer) sortStable(base int, swap func(i, j int)) {
	parts := r.spans[base:]
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && bytes.Compare(r.buf[parts[j].from:parts[j].to], r.buf[parts[j-1].from:parts[j-1].to]) < 0; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
			swap(j, j-1)
		}
	}
}

func (r *renderer) tuple(t Tuple) {
	switch x := t.(type) {
	case *TVar:
		r.variable(x)
	case *TAttr:
		r.sym(x.Attrs)
		r.buf = append(r.buf, '(')
		r.tuple(x.T)
		r.buf = append(r.buf, ')')
	case *TConcat:
		r.buf = append(r.buf, '(')
		r.tuple(x.L)
		r.buf = append(r.buf, '.')
		r.tuple(x.R)
		r.buf = append(r.buf, ')')
	default:
		panic("unreachable")
	}
}

func (r *renderer) bool(b Bool) {
	switch x := b.(type) {
	case *BEq:
		from, base := len(r.buf), len(r.spans)
		r.tuple(x.L)
		r.part(from)
		r.tuple(x.R)
		r.part(r.spans[base].to)
		r.sortParts(from, base, " = ")
	case *BPred:
		r.sym(x.Pred)
		r.buf = append(r.buf, '(')
		r.tuple(x.T)
		r.buf = append(r.buf, ')')
	case *BIsNull:
		r.buf = append(r.buf, "IsNull("...)
		r.tuple(x.T)
		r.buf = append(r.buf, ')')
	default:
		panic("unreachable")
	}
}

func (r *renderer) factor(f Factor) {
	switch x := f.(type) {
	case *Rel:
		r.sym(x.Rel)
		r.buf = append(r.buf, '(')
		r.tuple(x.T)
		r.buf = append(r.buf, ')')
	case *Bracket:
		r.buf = append(r.buf, '[')
		r.bool(x.B)
		r.buf = append(r.buf, ']')
	case *NotNF:
		r.buf = append(r.buf, "not("...)
		r.nf(x.NF)
		r.buf = append(r.buf, ')')
	case *SquashNF:
		r.buf = append(r.buf, "||"...)
		r.nf(x.NF)
		r.buf = append(r.buf, "||"...)
	default:
		panic("unreachable")
	}
}

func (r *renderer) nf(nf *NF) {
	if len(nf.Terms) == 0 {
		r.buf = append(r.buf, '0')
		return
	}
	from, base := len(r.buf), len(r.spans)
	for _, t := range nf.Terms {
		start := len(r.buf)
		r.termFixed(t)
		r.part(start)
	}
	r.sortParts(from, base, " + ")
}

// termFixed renders a term under the names bound outside it, its own bound
// variables named by rank.
func (r *renderer) termFixed(t *Term) {
	outer := len(r.names)
	r.rank(t)
	r.termWith(t)
	r.names = r.names[:outer]
}

// rank pushes bindings for t's bound variables, named s<outer>, s<outer+1>,
// ... in the order of their signatures. A variable's signature is t rendered
// with it marked and t's other bound variables unnamed, which no order or
// naming of t's binders changes; equal signatures keep t.Vars order.
// The signatures are rendered at the end of the buffer and dropped.
func (r *renderer) rank(t *Term) {
	outer, from, base := len(r.names), len(r.buf), len(r.spans)
	n := outer
	if len(t.Vars) > 1 {
		n = unnamed
	}
	for _, v := range t.Vars {
		r.names = append(r.names, binding{v, n})
	}
	if len(t.Vars) < 2 {
		return
	}
	for i := range t.Vars {
		// A nested term may grow r.names, so it is indexed afresh.
		r.names[outer+i].n = marked
		start := len(r.buf)
		r.termWith(t)
		r.part(start)
		r.names[outer+i].n = unnamed
	}
	ranked := r.names[outer:]
	r.sortStable(base, func(i, j int) { ranked[i], ranked[j] = ranked[j], ranked[i] })
	for i := range ranked {
		ranked[i].n = outer + i
	}
	r.buf, r.spans = r.buf[:from], r.spans[:base]
}

// termWith renders a term under the names bound now: "sum{vars}" when it
// binds any, then its factors, both lists sorted.
func (r *renderer) termWith(t *Term) {
	if len(t.Vars) > 0 {
		r.buf = append(r.buf, "sum{"...)
		from, base := len(r.buf), len(r.spans)
		for _, v := range t.Vars {
			start := len(r.buf)
			r.variable(v)
			r.part(start)
		}
		r.sortParts(from, base, ",")
		r.buf = append(r.buf, '}')
	}
	r.buf = append(r.buf, '(')
	from, base := len(r.buf), len(r.spans)
	for _, f := range t.Factors {
		start := len(r.buf)
		r.factor(f)
		r.part(start)
	}
	r.sortParts(from, base, " * ")
	r.buf = append(r.buf, ')')
}

// FactorUsesVar reports whether the factor mentions the tuple variable.
// Exported for the FOL translation layer.
func FactorUsesVar(f Factor, id int) bool { return factorUses(f, &TVar{ID: id}) }
