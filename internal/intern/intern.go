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
//   - Nodes are immutable once interned; substitution rebuilds changed nodes
//     through the constructors, so its results are canonical too.
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

// Pool is a hash-consing arena. The zero value is not usable; call NewPool.
type Pool struct {
	tInfo map[uexpr.Tuple]*tupleInfo
	tBuck map[uint64][]uexpr.Tuple

	f table[fol.Formula]
	m table[fol.Term]

	trueF  *fol.TrueF
	falseF *fol.FalseF

	// flat is where MkAnd and MkOr flatten their operands (fol.Flatten) before
	// probing, so that a hit allocates nothing; a miss copies it into the new
	// node.
	flat []fol.Formula

	// canon rebuilds a node it is given through the pool (Formula, Term);
	// sub is the pooled substitution (subst.go). Their hooks are method
	// values made once, here, so mapping allocates only the nodes it makes.
	canon fol.Mapper
	sub   subst

	hits                      uint64 // lifetime counter; Size counts the nodes
	flushedHits, flushedNodes uint64 // already reported to obs
}

// NewPool returns an empty pool with the boolean constants pre-interned.
func NewPool() *Pool {
	p := &Pool{
		tInfo:  map[uexpr.Tuple]*tupleInfo{},
		tBuck:  map[uint64][]uexpr.Tuple{},
		f:      table[fol.Formula]{hash: map[fol.Formula]uint64{}, buck: map[uint64][]fol.Formula{}},
		m:      table[fol.Term]{hash: map[fol.Term]uint64{}, buck: map[uint64][]fol.Term{}},
		trueF:  &fol.TrueF{},
		falseF: &fol.FalseF{},
	}
	p.canon = fol.Mapper{Formula: p.Formula, Term: p.Term, Tuple: p.Tuple, Copy: true}
	p.sub = subst{p: p}
	p.sub.m = fol.Mapper{Formula: p.sub.formula, Term: p.sub.term, Tuple: p.sub.tuple, Bind: p.sub.binds}
	p.f.hash[p.trueF] = mix(offset64, 101)
	p.f.hash[p.falseF] = mix(offset64, 102)
	return p
}

// Size reports the number of unique nodes in the pool.
func (p *Pool) Size() int { return len(p.tInfo) + len(p.f.hash) + len(p.m.hash) }

// Stats reports lifetime hit and unique-node counts.
func (p *Pool) Stats() (hits, nodes uint64) { return p.hits, uint64(p.Size()) }

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
	if n := uint64(p.Size()); n > p.flushedNodes {
		reg.Counter(MetricNodes).Add(int64(n - p.flushedNodes))
		p.flushedNodes = n
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
	if c, ok := find(p, p.tBuck[h], func(c uexpr.Tuple) bool { v, ok := c.(*uexpr.TVar); return ok && v.ID == id }); ok {
		return c
	}
	n := &uexpr.TVar{ID: id}
	p.putTuple(n, h, "t"+strconv.Itoa(id), 0)
	return n
}

// MkAttr interns a(t). t must be canonical.
func (p *Pool) MkAttr(attrs template.Sym, t uexpr.Tuple) uexpr.Tuple {
	ti := p.tInfo[t]
	h := mix(symHash(tagTAttr, attrs), ti.hash)
	if c, ok := find(p, p.tBuck[h], func(c uexpr.Tuple) bool { a, ok := c.(*uexpr.TAttr); return ok && a.Attrs == attrs && a.T == t }); ok {
		return c
	}
	n := &uexpr.TAttr{Attrs: attrs, T: t}
	p.putTuple(n, h, attrs.String()+"("+ti.key+")", 1+ti.depth)
	return n
}

// MkConcat interns (l.r). l and r must be canonical.
func (p *Pool) MkConcat(l, r uexpr.Tuple) uexpr.Tuple {
	li, ri := p.tInfo[l], p.tInfo[r]
	h := mix(mix(mix(offset64, tagTConcat), li.hash), ri.hash)
	if c, ok := find(p, p.tBuck[h], func(c uexpr.Tuple) bool { x, ok := c.(*uexpr.TConcat); return ok && x.L == l && x.R == r }); ok {
		return c
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
}

// Tuple canonicalizes an arbitrary tuple term into the pool. It keeps its own
// switch: uexpr.MapTuple hands a node whose children are pooled back as it
// is, and a canonicaliser must rebuild it all the same.
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

// table is one sort's hash-consing table: the structural hash of every
// pooled node, and the pooled nodes under each hash.
type table[N comparable] struct {
	hash map[N]uint64
	buck map[uint64][]N
}

// find returns the node of bucket that same accepts: the pooled node equal
// to one being made, whose hash picked the bucket.
func find[N comparable](p *Pool, bucket []N, same func(N) bool) (N, bool) {
	for _, c := range bucket {
		if same(c) {
			p.hits++
			return c, true
		}
	}
	var none N
	return none, false
}

// put pools n under hash h.
func (t *table[N]) put(n N, h uint64) N {
	t.hash[n] = h
	t.buck[h] = append(t.buck[h], n)
	return n
}

// poolF returns the pooled formula equal to n, a node of a kind without
// slices over pooled children, or pools a copy of n; h is its hash.
func poolF[N comparable, P interface {
	*N
	fol.Formula
}](p *Pool, h uint64, n N) fol.Formula {
	if c, ok := find(p, p.f.buck[h], func(c fol.Formula) bool { x, ok := c.(P); return ok && *x == n }); ok {
		return c
	}
	x := P(new(N))
	*x = n
	return p.f.put(x, h)
}

// MkTupleEq interns l = r. Children must be canonical.
func (p *Pool) MkTupleEq(l, r uexpr.Tuple) fol.Formula {
	return poolF(p, mix(mix(mix(offset64, tagTupleEq), p.tInfo[l].hash), p.tInfo[r].hash), fol.TupleEq{L: l, R: r})
}

// MkPredApp interns pred(t). t must be canonical.
func (p *Pool) MkPredApp(pred template.Sym, t uexpr.Tuple) fol.Formula {
	return poolF(p, mix(symHash(tagPredApp, pred), p.tInfo[t].hash), fol.PredApp{Pred: pred, T: t})
}

// MkIsNull interns IsNull(t). t must be canonical.
func (p *Pool) MkIsNull(t uexpr.Tuple) fol.Formula {
	return poolF(p, mix(mix(offset64, tagIsNull), p.tInfo[t].hash), fol.IsNull{T: t})
}

// MkIntEq interns l = r over integer terms. Children must be canonical.
func (p *Pool) MkIntEq(l, r fol.Term) fol.Formula {
	return poolF(p, mix(mix(mix(offset64, tagIntEq), p.m.hash[l]), p.m.hash[r]), fol.IntEq{L: l, R: r})
}

// MkIntGt0 interns t > 0. t must be canonical.
func (p *Pool) MkIntGt0(t fol.Term) fol.Formula {
	return poolF(p, mix(mix(offset64, tagIntGt0), p.m.hash[t]), fol.IntGt0{T: t})
}

// MkIntLe1 interns t <= 1. t must be canonical.
func (p *Pool) MkIntLe1(t fol.Term) fol.Formula {
	return poolF(p, mix(mix(offset64, tagIntLe1), p.m.hash[t]), fol.IntLe1{T: t})
}

// MkNot interns !f. f must be canonical.
func (p *Pool) MkNot(f fol.Formula) fol.Formula {
	return poolF(p, mix(mix(offset64, tagNot), p.f.hash[f]), fol.Not{F: f})
}

// MkImplies interns l => r. Children must be canonical.
func (p *Pool) MkImplies(l, r fol.Formula) fol.Formula {
	return poolF(p, mix(mix(mix(offset64, tagImplies), p.f.hash[l]), p.f.hash[r]), fol.Implies{L: l, R: r})
}

// MkAnd flattens and interns a conjunction with fol.MkAnd's semantics (one
// rule, fol.Flatten). Elements must be canonical.
func (p *Pool) MkAnd(fs ...fol.Formula) fol.Formula { return p.junction(false, fs) }

// MkOr flattens and interns a disjunction with fol.MkOr's semantics.
// Elements must be canonical.
func (p *Pool) MkOr(fs ...fol.Formula) fol.Formula { return p.junction(true, fs) }

func (p *Pool) junction(or bool, fs []fol.Formula) fol.Formula {
	out := fol.Flatten(p.flat[:0], or, fs)
	p.flat = out[:0]
	switch {
	case len(out) == 1:
		return out[0]
	case len(out) == 0 && or:
		return p.falseF
	case len(out) == 0:
		return p.trueF
	case or:
		h := hashAll(tagOr, out, p.f.hash)
		if c, ok := find(p, p.f.buck[h], func(c fol.Formula) bool { x, ok := c.(*fol.Or); return ok && slices.Equal(x.Fs, out) }); ok {
			return c
		}
		return p.f.put(&fol.Or{Fs: slices.Clone(out)}, h)
	}
	h := hashAll(tagAnd, out, p.f.hash)
	if c, ok := find(p, p.f.buck[h], func(c fol.Formula) bool { x, ok := c.(*fol.And); return ok && slices.Equal(x.Fs, out) }); ok {
		return c
	}
	return p.f.put(&fol.And{Fs: slices.Clone(out)}, h)
}

// hashAll hashes a node of kind tag over the pooled nodes xs.
func hashAll[N comparable](tag uint64, xs []N, hash map[N]uint64) uint64 {
	h := mix(mix(offset64, tag), uint64(len(xs)))
	for _, x := range xs {
		h = mix(h, hash[x])
	}
	return h
}

// MkForall interns a universal quantifier. Body must be canonical; vars are
// canonicalized by ID.
func (p *Pool) MkForall(vars []*uexpr.TVar, body fol.Formula) fol.Formula {
	cv, h := p.quantVars(tagForall, vars, body)
	if c, ok := find(p, p.f.buck[h], func(c fol.Formula) bool {
		x, ok := c.(*fol.Forall)
		return ok && x.Body == body && slices.Equal(x.Vars, cv)
	}); ok {
		return c
	}
	return p.f.put(&fol.Forall{Vars: cv, Body: body}, h)
}

// MkExists interns an existential quantifier. Body must be canonical; vars
// are canonicalized by ID.
func (p *Pool) MkExists(vars []*uexpr.TVar, body fol.Formula) fol.Formula {
	cv, h := p.quantVars(tagExists, vars, body)
	if c, ok := find(p, p.f.buck[h], func(c fol.Formula) bool {
		x, ok := c.(*fol.Exists)
		return ok && x.Body == body && slices.Equal(x.Vars, cv)
	}); ok {
		return c
	}
	return p.f.put(&fol.Exists{Vars: cv, Body: body}, h)
}

func (p *Pool) quantVars(tag uint64, vars []*uexpr.TVar, body fol.Formula) ([]*uexpr.TVar, uint64) {
	cv := make([]*uexpr.TVar, len(vars))
	h := mix(mix(offset64, tag), uint64(len(vars)))
	for i, v := range vars {
		cv[i] = p.MkVar(v.ID).(*uexpr.TVar)
		h = mix(h, uint64(uint32(v.ID)))
	}
	return cv, mix(h, p.f.hash[body])
}

// Formula canonicalizes an arbitrary formula into the pool.
func (p *Pool) Formula(f fol.Formula) fol.Formula {
	if _, ok := p.f.hash[f]; ok {
		p.hits++
		return f
	}
	return p.canon.MapFormula(f, p)
}

// --- integer terms ---

// poolM is poolF for integer terms.
func poolM[N comparable, P interface {
	*N
	fol.Term
}](p *Pool, h uint64, n N) fol.Term {
	if c, ok := find(p, p.m.buck[h], func(c fol.Term) bool { x, ok := c.(P); return ok && *x == n }); ok {
		return c
	}
	x := P(new(N))
	*x = n
	return p.m.put(x, h)
}

// MkRelApp interns rel(t). t must be canonical.
func (p *Pool) MkRelApp(rel template.Sym, t uexpr.Tuple) fol.Term {
	return poolM(p, mix(symHash(tagRelApp, rel), p.tInfo[t].hash), fol.RelApp{Rel: rel, T: t})
}

// MkIntConst interns the integer constant n.
func (p *Pool) MkIntConst(n int) fol.Term {
	return poolM(p, mix(mix(offset64, tagIntConst), uint64(uint32(n))), fol.IntConst{N: n})
}

// MkITE interns ite(cond, then, else). Children must be canonical.
func (p *Pool) MkITE(cond fol.Formula, then, els fol.Term) fol.Term {
	h := mix(mix(mix(mix(offset64, tagITE), p.f.hash[cond]), p.m.hash[then]), p.m.hash[els])
	return poolM(p, h, fol.ITE{Cond: cond, Then: then, Else: els})
}

// MkMulT interns a product. Elements must be canonical; no flattening (the
// fol layer never flattens products either).
func (p *Pool) MkMulT(fs []fol.Term) fol.Term {
	h := hashAll(tagMulT, fs, p.m.hash)
	if c, ok := find(p, p.m.buck[h], func(c fol.Term) bool { x, ok := c.(*fol.MulT); return ok && slices.Equal(x.Fs, fs) }); ok {
		return c
	}
	return p.m.put(&fol.MulT{Fs: fs}, h)
}

// MkAddT interns a sum. Elements must be canonical.
func (p *Pool) MkAddT(ts []fol.Term) fol.Term {
	h := hashAll(tagAddT, ts, p.m.hash)
	if c, ok := find(p, p.m.buck[h], func(c fol.Term) bool { x, ok := c.(*fol.AddT); return ok && slices.Equal(x.Ts, ts) }); ok {
		return c
	}
	return p.m.put(&fol.AddT{Ts: ts}, h)
}

// Term canonicalizes an arbitrary integer term into the pool.
func (p *Pool) Term(t fol.Term) fol.Term {
	if _, ok := p.m.hash[t]; ok {
		p.hits++
		return t
	}
	return p.canon.MapTerm(t, p)
}
