// Package intern hash-conses the tuple terms, FOL formulas and FOL integer
// terms flowing through the verifier's SMT hot path. Every distinct structure
// is represented by exactly one node: construction goes through a
// deduplicating table keyed by a precomputed 64-bit structural hash, so
// structural equality and memo keys degrade to pointer comparisons instead of
// the String() serializations the solver previously re-computed on every DPLL
// iteration.
//
// Invariants:
//
//   - Children-canonical: every constructor requires (and every canonicalizer
//     guarantees) that child nodes are themselves pool nodes, which makes
//     parent deduplication a shallow comparison of child pointers.
//   - Nodes are immutable once interned; substitution builds new canonical
//     nodes and memoizes on (node, var, replacement) pointer keys.
//   - Tuple nodes carry their canonical key string (byte-identical to the
//     solver's historical tupleKey format) and depth, computed once per unique
//     node. Every ordering decision in the solver keeps sorting by these
//     strings — never by interning sequence — so verdicts are independent of
//     pool history (the warm/cold determinism bar of internal/pipeline).
//   - TVar scopes are dropped: pooled variables are identified by ID alone.
//     The SMT fragment never reads TVar.Scope, but this makes the pool
//     unsuitable for the normalizer's U-expressions, where scope length is
//     semantically significant (see uexpr.ApplySyms).
//
// A Pool is NOT safe for concurrent use: each verification context (one
// template pair on one pipeline worker) owns its own pool.
package intern

import (
	"slices"
	"strconv"

	"wetune/internal/fol"
	"wetune/internal/obs"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// FNV-1a constants for the structural hash.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= prime64
	return h
}

// Node-kind tags feeding the structural hash (one per concrete type).
const (
	tagTVar uint64 = iota + 1
	tagTAttr
	tagTConcat
	tagTupleEq
	tagPredApp
	tagIsNull
	tagIntEq
	tagIntGt0
	tagIntLe1
	tagNot
	tagAnd
	tagOr
	tagImplies
	tagForall
	tagExists
	tagRelApp
	tagIntConst
	tagITE
	tagMulT
	tagAddT
)

func symHash(tag uint64, s template.Sym) uint64 {
	return mix(mix(mix(offset64, tag), uint64(s.Kind)), uint64(uint32(s.ID)))
}

// tupleInfo is the per-node metadata of an interned tuple term.
type tupleInfo struct {
	hash  uint64
	key   string // canonical string, byte-identical to the legacy tupleKey
	depth int
}

// substKey memoizes substitution results on pointer identity.
type substKey struct {
	node any
	id   int
	repl uexpr.Tuple
}

// Pool is a hash-consing arena. The zero value is not usable; call NewPool.
type Pool struct {
	tInfo map[uexpr.Tuple]*tupleInfo
	tBuck map[uint64][]uexpr.Tuple

	fHash map[fol.Formula]uint64
	fBuck map[uint64][]fol.Formula

	mHash map[fol.Term]uint64
	mBuck map[uint64][]fol.Term

	trueF  *fol.TrueF
	falseF *fol.FalseF

	// flat is where MkAnd and MkOr flatten their operands before probing, so
	// that a hit allocates nothing; a miss copies it into the new node.
	flat []fol.Formula

	sfMemo map[substKey]fol.Formula
	smMemo map[substKey]fol.Term
	stMemo map[substKey]uexpr.Tuple

	hits, nodes               uint64 // lifetime counters
	flushedHits, flushedNodes uint64 // already reported to obs
}

// NewPool returns an empty pool with the boolean constants pre-interned.
func NewPool() *Pool {
	p := &Pool{
		tInfo:  map[uexpr.Tuple]*tupleInfo{},
		tBuck:  map[uint64][]uexpr.Tuple{},
		fHash:  map[fol.Formula]uint64{},
		fBuck:  map[uint64][]fol.Formula{},
		mHash:  map[fol.Term]uint64{},
		mBuck:  map[uint64][]fol.Term{},
		trueF:  &fol.TrueF{},
		falseF: &fol.FalseF{},
		sfMemo: map[substKey]fol.Formula{},
		smMemo: map[substKey]fol.Term{},
		stMemo: map[substKey]uexpr.Tuple{},
	}
	p.fHash[p.trueF] = mix(offset64, 101)
	p.fHash[p.falseF] = mix(offset64, 102)
	p.nodes += 2
	return p
}

// Size reports the number of unique nodes in the pool.
func (p *Pool) Size() int { return len(p.tInfo) + len(p.fHash) + len(p.mHash) }

// Stats reports lifetime hit and unique-node counts.
func (p *Pool) Stats() (hits, nodes uint64) { return p.hits, p.nodes }

// Metric names recorded by FlushMetrics (see internal/obs and DESIGN.md).
const (
	MetricHits      = "intern_hits"
	MetricNodes     = "intern_nodes"
	MetricPoolNodes = "intern_pool_nodes"
)

// FlushMetrics adds the counter deltas accumulated since the previous flush
// to the registry (intern_hits, intern_nodes) and sets the intern_pool_nodes
// gauge to this pool's current size. Deltas make repeated flushing — e.g.
// once per solver call on a shared pool — idempotent. nil uses obs.Default().
func (p *Pool) FlushMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	if d := p.hits - p.flushedHits; d > 0 {
		reg.Counter(MetricHits).Add(int64(d))
		p.flushedHits = p.hits
	}
	if d := p.nodes - p.flushedNodes; d > 0 {
		reg.Counter(MetricNodes).Add(int64(d))
		p.flushedNodes = p.nodes
	}
	reg.Gauge(MetricPoolNodes).Set(int64(p.Size()))
}

// --- tuple terms ---

// True returns the pooled boolean constant true.
func (p *Pool) True() fol.Formula { return p.trueF }

// False returns the pooled boolean constant false.
func (p *Pool) False() fol.Formula { return p.falseF }

// MkVar interns the tuple variable with the given ID (scope-free; see the
// package comment).
func (p *Pool) MkVar(id int) uexpr.Tuple {
	h := mix(mix(offset64, tagTVar), uint64(uint32(id)))
	for _, c := range p.tBuck[h] {
		if v, ok := c.(*uexpr.TVar); ok && v.ID == id {
			p.hits++
			return c
		}
	}
	n := &uexpr.TVar{ID: id}
	p.putTuple(n, h, "t"+strconv.Itoa(id), 0)
	return n
}

// MkAttr interns a(t). t must be canonical.
func (p *Pool) MkAttr(attrs template.Sym, t uexpr.Tuple) uexpr.Tuple {
	ti := p.tInfo[t]
	h := mix(symHash(tagTAttr, attrs), ti.hash)
	for _, c := range p.tBuck[h] {
		if a, ok := c.(*uexpr.TAttr); ok && a.Attrs == attrs && a.T == t {
			p.hits++
			return c
		}
	}
	n := &uexpr.TAttr{Attrs: attrs, T: t}
	p.putTuple(n, h, attrs.String()+"("+ti.key+")", 1+ti.depth)
	return n
}

// MkConcat interns (l.r). l and r must be canonical.
func (p *Pool) MkConcat(l, r uexpr.Tuple) uexpr.Tuple {
	li, ri := p.tInfo[l], p.tInfo[r]
	h := mix(mix(mix(offset64, tagTConcat), li.hash), ri.hash)
	for _, c := range p.tBuck[h] {
		if x, ok := c.(*uexpr.TConcat); ok && x.L == l && x.R == r {
			p.hits++
			return c
		}
	}
	depth := li.depth
	if ri.depth > depth {
		depth = ri.depth
	}
	n := &uexpr.TConcat{L: l, R: r}
	p.putTuple(n, h, "("+li.key+"."+ri.key+")", 1+depth)
	return n
}

func (p *Pool) putTuple(n uexpr.Tuple, h uint64, key string, depth int) {
	p.tInfo[n] = &tupleInfo{hash: h, key: key, depth: depth}
	p.tBuck[h] = append(p.tBuck[h], n)
	p.nodes++
}

// Tuple canonicalizes an arbitrary tuple term into the pool.
func (p *Pool) Tuple(t uexpr.Tuple) uexpr.Tuple {
	if _, ok := p.tInfo[t]; ok {
		p.hits++
		return t
	}
	switch x := t.(type) {
	case *uexpr.TVar:
		return p.MkVar(x.ID)
	case *uexpr.TAttr:
		return p.MkAttr(x.Attrs, p.Tuple(x.T))
	case *uexpr.TConcat:
		return p.MkConcat(p.Tuple(x.L), p.Tuple(x.R))
	}
	panic("intern: unknown tuple type")
}

// TupleKey returns the canonical key string of a pooled tuple (byte-identical
// to the legacy smt tupleKey format).
func (p *Pool) TupleKey(t uexpr.Tuple) string { return p.tInfo[t].key }

// TupleDepth returns the cached depth of a pooled tuple.
func (p *Pool) TupleDepth(t uexpr.Tuple) int { return p.tInfo[t].depth }

// --- formulas ---

func (p *Pool) findF(h uint64, eq func(fol.Formula) bool) fol.Formula {
	for _, c := range p.fBuck[h] {
		if eq(c) {
			p.hits++
			return c
		}
	}
	return nil
}

func (p *Pool) putF(n fol.Formula, h uint64) fol.Formula {
	p.fHash[n] = h
	p.fBuck[h] = append(p.fBuck[h], n)
	p.nodes++
	return n
}

// MkTupleEq interns l = r. Children must be canonical.
func (p *Pool) MkTupleEq(l, r uexpr.Tuple) fol.Formula {
	h := mix(mix(mix(offset64, tagTupleEq), p.tInfo[l].hash), p.tInfo[r].hash)
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.TupleEq)
		return ok && x.L == l && x.R == r
	}); c != nil {
		return c
	}
	return p.putF(&fol.TupleEq{L: l, R: r}, h)
}

// MkPredApp interns pred(t). t must be canonical.
func (p *Pool) MkPredApp(pred template.Sym, t uexpr.Tuple) fol.Formula {
	h := mix(symHash(tagPredApp, pred), p.tInfo[t].hash)
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.PredApp)
		return ok && x.Pred == pred && x.T == t
	}); c != nil {
		return c
	}
	return p.putF(&fol.PredApp{Pred: pred, T: t}, h)
}

// MkIsNull interns IsNull(t). t must be canonical.
func (p *Pool) MkIsNull(t uexpr.Tuple) fol.Formula {
	h := mix(mix(offset64, tagIsNull), p.tInfo[t].hash)
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.IsNull)
		return ok && x.T == t
	}); c != nil {
		return c
	}
	return p.putF(&fol.IsNull{T: t}, h)
}

// MkIntEq interns l = r over integer terms. Children must be canonical.
func (p *Pool) MkIntEq(l, r fol.Term) fol.Formula {
	h := mix(mix(mix(offset64, tagIntEq), p.mHash[l]), p.mHash[r])
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.IntEq)
		return ok && x.L == l && x.R == r
	}); c != nil {
		return c
	}
	return p.putF(&fol.IntEq{L: l, R: r}, h)
}

// MkIntGt0 interns t > 0. t must be canonical.
func (p *Pool) MkIntGt0(t fol.Term) fol.Formula {
	h := mix(mix(offset64, tagIntGt0), p.mHash[t])
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.IntGt0)
		return ok && x.T == t
	}); c != nil {
		return c
	}
	return p.putF(&fol.IntGt0{T: t}, h)
}

// MkIntLe1 interns t <= 1. t must be canonical.
func (p *Pool) MkIntLe1(t fol.Term) fol.Formula {
	h := mix(mix(offset64, tagIntLe1), p.mHash[t])
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.IntLe1)
		return ok && x.T == t
	}); c != nil {
		return c
	}
	return p.putF(&fol.IntLe1{T: t}, h)
}

// MkNot interns !f. f must be canonical.
func (p *Pool) MkNot(f fol.Formula) fol.Formula {
	h := mix(mix(offset64, tagNot), p.fHash[f])
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.Not)
		return ok && x.F == f
	}); c != nil {
		return c
	}
	return p.putF(&fol.Not{F: f}, h)
}

// MkImplies interns l => r. Children must be canonical.
func (p *Pool) MkImplies(l, r fol.Formula) fol.Formula {
	h := mix(mix(mix(offset64, tagImplies), p.fHash[l]), p.fHash[r])
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.Implies)
		return ok && x.L == l && x.R == r
	}); c != nil {
		return c
	}
	return p.putF(&fol.Implies{L: l, R: r}, h)
}

// MkAnd flattens and interns a conjunction with exactly fol.MkAnd's
// semantics (nil and true dropped, nested conjunctions unwrapped, empty =>
// true, singleton unwrapped). Elements must be canonical.
func (p *Pool) MkAnd(fs ...fol.Formula) fol.Formula {
	out := p.flat[:0]
	for _, f := range fs {
		switch x := f.(type) {
		case nil:
		case *fol.TrueF:
		case *fol.And:
			out = append(out, x.Fs...)
		default:
			out = append(out, f)
		}
	}
	p.flat = out[:0]
	switch len(out) {
	case 0:
		return p.trueF
	case 1:
		return out[0]
	}
	h := mix(mix(offset64, tagAnd), uint64(len(out)))
	for _, f := range out {
		h = mix(h, p.fHash[f])
	}
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.And)
		return ok && sameFs(x.Fs, out)
	}); c != nil {
		return c
	}
	return p.putF(&fol.And{Fs: slices.Clone(out)}, h)
}

// MkOr flattens and interns a disjunction with exactly fol.MkOr's semantics.
// Elements must be canonical.
func (p *Pool) MkOr(fs ...fol.Formula) fol.Formula {
	out := p.flat[:0]
	for _, f := range fs {
		switch x := f.(type) {
		case nil:
		case *fol.FalseF:
		case *fol.Or:
			out = append(out, x.Fs...)
		default:
			out = append(out, f)
		}
	}
	p.flat = out[:0]
	switch len(out) {
	case 0:
		return p.falseF
	case 1:
		return out[0]
	}
	h := mix(mix(offset64, tagOr), uint64(len(out)))
	for _, f := range out {
		h = mix(h, p.fHash[f])
	}
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.Or)
		return ok && sameFs(x.Fs, out)
	}); c != nil {
		return c
	}
	return p.putF(&fol.Or{Fs: slices.Clone(out)}, h)
}

func sameFs(a, b []fol.Formula) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MkForall interns a universal quantifier. Body must be canonical; vars are
// canonicalized by ID.
func (p *Pool) MkForall(vars []*uexpr.TVar, body fol.Formula) fol.Formula {
	cv, h := p.quantVars(tagForall, vars, body)
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.Forall)
		return ok && x.Body == body && sameVars(x.Vars, cv)
	}); c != nil {
		return c
	}
	return p.putF(&fol.Forall{Vars: cv, Body: body}, h)
}

// MkExists interns an existential quantifier. Body must be canonical; vars
// are canonicalized by ID.
func (p *Pool) MkExists(vars []*uexpr.TVar, body fol.Formula) fol.Formula {
	cv, h := p.quantVars(tagExists, vars, body)
	if c := p.findF(h, func(c fol.Formula) bool {
		x, ok := c.(*fol.Exists)
		return ok && x.Body == body && sameVars(x.Vars, cv)
	}); c != nil {
		return c
	}
	return p.putF(&fol.Exists{Vars: cv, Body: body}, h)
}

func (p *Pool) quantVars(tag uint64, vars []*uexpr.TVar, body fol.Formula) ([]*uexpr.TVar, uint64) {
	cv := make([]*uexpr.TVar, len(vars))
	h := mix(mix(offset64, tag), uint64(len(vars)))
	for i, v := range vars {
		cv[i] = p.MkVar(v.ID).(*uexpr.TVar)
		h = mix(h, uint64(uint32(v.ID)))
	}
	return cv, mix(h, p.fHash[body])
}

func sameVars(a, b []*uexpr.TVar) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Formula canonicalizes an arbitrary formula into the pool.
func (p *Pool) Formula(f fol.Formula) fol.Formula {
	if _, ok := p.fHash[f]; ok {
		p.hits++
		return f
	}
	switch x := f.(type) {
	case *fol.TrueF:
		return p.trueF
	case *fol.FalseF:
		return p.falseF
	case *fol.TupleEq:
		return p.MkTupleEq(p.Tuple(x.L), p.Tuple(x.R))
	case *fol.PredApp:
		return p.MkPredApp(x.Pred, p.Tuple(x.T))
	case *fol.IsNull:
		return p.MkIsNull(p.Tuple(x.T))
	case *fol.IntEq:
		return p.MkIntEq(p.Term(x.L), p.Term(x.R))
	case *fol.IntGt0:
		return p.MkIntGt0(p.Term(x.T))
	case *fol.IntLe1:
		return p.MkIntLe1(p.Term(x.T))
	case *fol.Not:
		return p.MkNot(p.Formula(x.F))
	case *fol.And:
		out := make([]fol.Formula, len(x.Fs))
		for i, g := range x.Fs {
			out[i] = p.Formula(g)
		}
		return p.MkAnd(out...)
	case *fol.Or:
		out := make([]fol.Formula, len(x.Fs))
		for i, g := range x.Fs {
			out[i] = p.Formula(g)
		}
		return p.MkOr(out...)
	case *fol.Implies:
		return p.MkImplies(p.Formula(x.L), p.Formula(x.R))
	case *fol.Forall:
		return p.MkForall(x.Vars, p.Formula(x.Body))
	case *fol.Exists:
		return p.MkExists(x.Vars, p.Formula(x.Body))
	}
	panic("intern: unknown formula type")
}

// --- integer terms ---

func (p *Pool) findM(h uint64, eq func(fol.Term) bool) fol.Term {
	for _, c := range p.mBuck[h] {
		if eq(c) {
			p.hits++
			return c
		}
	}
	return nil
}

func (p *Pool) putM(n fol.Term, h uint64) fol.Term {
	p.mHash[n] = h
	p.mBuck[h] = append(p.mBuck[h], n)
	p.nodes++
	return n
}

// MkRelApp interns rel(t). t must be canonical.
func (p *Pool) MkRelApp(rel template.Sym, t uexpr.Tuple) fol.Term {
	h := mix(symHash(tagRelApp, rel), p.tInfo[t].hash)
	if c := p.findM(h, func(c fol.Term) bool {
		x, ok := c.(*fol.RelApp)
		return ok && x.Rel == rel && x.T == t
	}); c != nil {
		return c
	}
	return p.putM(&fol.RelApp{Rel: rel, T: t}, h)
}

// MkIntConst interns the integer constant n.
func (p *Pool) MkIntConst(n int) fol.Term {
	h := mix(mix(offset64, tagIntConst), uint64(uint32(n)))
	if c := p.findM(h, func(c fol.Term) bool {
		x, ok := c.(*fol.IntConst)
		return ok && x.N == n
	}); c != nil {
		return c
	}
	return p.putM(&fol.IntConst{N: n}, h)
}

// MkITE interns ite(cond, then, else). Children must be canonical.
func (p *Pool) MkITE(cond fol.Formula, then, els fol.Term) fol.Term {
	h := mix(mix(mix(mix(offset64, tagITE), p.fHash[cond]), p.mHash[then]), p.mHash[els])
	if c := p.findM(h, func(c fol.Term) bool {
		x, ok := c.(*fol.ITE)
		return ok && x.Cond == cond && x.Then == then && x.Else == els
	}); c != nil {
		return c
	}
	return p.putM(&fol.ITE{Cond: cond, Then: then, Else: els}, h)
}

// MkMulT interns a product. Elements must be canonical; no flattening (the
// fol layer never flattens products either).
func (p *Pool) MkMulT(fs []fol.Term) fol.Term {
	h := mix(mix(offset64, tagMulT), uint64(len(fs)))
	for _, f := range fs {
		h = mix(h, p.mHash[f])
	}
	if c := p.findM(h, func(c fol.Term) bool {
		x, ok := c.(*fol.MulT)
		return ok && sameMs(x.Fs, fs)
	}); c != nil {
		return c
	}
	return p.putM(&fol.MulT{Fs: fs}, h)
}

// MkAddT interns a sum. Elements must be canonical.
func (p *Pool) MkAddT(ts []fol.Term) fol.Term {
	h := mix(mix(offset64, tagAddT), uint64(len(ts)))
	for _, t := range ts {
		h = mix(h, p.mHash[t])
	}
	if c := p.findM(h, func(c fol.Term) bool {
		x, ok := c.(*fol.AddT)
		return ok && sameMs(x.Ts, ts)
	}); c != nil {
		return c
	}
	return p.putM(&fol.AddT{Ts: ts}, h)
}

func sameMs(a, b []fol.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Term canonicalizes an arbitrary integer term into the pool.
func (p *Pool) Term(t fol.Term) fol.Term {
	if _, ok := p.mHash[t]; ok {
		p.hits++
		return t
	}
	switch x := t.(type) {
	case *fol.RelApp:
		return p.MkRelApp(x.Rel, p.Tuple(x.T))
	case *fol.IntConst:
		return p.MkIntConst(x.N)
	case *fol.ITE:
		return p.MkITE(p.Formula(x.Cond), p.Term(x.Then), p.Term(x.Else))
	case *fol.MulT:
		out := make([]fol.Term, len(x.Fs))
		for i, g := range x.Fs {
			out[i] = p.Term(g)
		}
		return p.MkMulT(out)
	case *fol.AddT:
		out := make([]fol.Term, len(x.Ts))
		for i, g := range x.Ts {
			out[i] = p.Term(g)
		}
		return p.MkAddT(out)
	}
	panic("intern: unknown term type")
}
