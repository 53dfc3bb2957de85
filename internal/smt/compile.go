package smt

import (
	"fmt"
	"math/bits"

	"wetune/internal/fol"
	"wetune/internal/template"
)

// The ground formula and the terms of its integer atoms are compiled once per
// decide() into flat arrays with atoms, tuple terms and relation symbols
// resolved to dense numbers. Children keep their source order and evaluation
// keeps the source short-circuit rules, so the first undecided atom a pass
// meets — the atom DPLL branches on — is a property of the formula alone.
//
// The search does not evaluate the whole formula at each node: conjuncts
// (below) lists, per atom, the root conjuncts that read it, and an assignment
// re-evaluates only those.

const (
	evalFalse = -1
	evalTrue  = 1
	evalOpen  = 0
)

// node is one compiled formula or integer-term node.
type node struct {
	op      nodeOp
	a, b, c int32
}

type nodeOp uint8

const (
	fTrue nodeOp = iota
	fFalse
	fAtom  // a = atom id, or -1 for an atom that was never collected
	fNot   // a = operand
	fAnd   // operands g.kids[a:b]
	fOr    // operands g.kids[a:b]
	tConst // a = the constant
	tRel   // a = relation number, b = tuple term number
	tITE   // a = condition (a formula node), b = then, c = else
	tMul   // factors g.kids[a:b]
	tAdd   // summands g.kids[a:b]
)

// intAtom is an integer atom with its sides compiled (r is -1 for Gt0/Le1).
type intAtom struct {
	id   int
	kind intKind
	l, r int32
}

type intKind uint8

const (
	intEq intKind = iota
	intGt0
	intLe1
)

// compileAll compiles the formula and every integer atom into g.prog. It
// keeps its own switches: each kind compiles to an op of its own, and an
// implication to the disjunction it means.
func (g *grounder) compileAll(f fol.Formula) {
	memo := map[any]int32{} // formula or term -> node
	rels := map[template.Sym]int32{}
	var compile func(v any) int32
	operands := func(op nodeOp, n int, at func(int) any) node {
		ks := make([]int32, n)
		for i := range ks {
			ks[i] = compile(at(i))
		}
		g.kids = append(g.kids, ks...)
		return node{op: op, a: int32(len(g.kids) - n), b: int32(len(g.kids))}
	}
	compile = func(v any) int32 {
		if n, ok := memo[v]; ok {
			return n
		}
		var nd node
		switch x := v.(type) {
		case *fol.TrueF:
			nd.op = fTrue
		case *fol.FalseF:
			nd.op = fFalse
		case *fol.And:
			nd = operands(fAnd, len(x.Fs), func(i int) any { return x.Fs[i] })
		case *fol.Or:
			nd = operands(fOr, len(x.Fs), func(i int) any { return x.Fs[i] })
		case *fol.Not:
			nd = node{op: fNot, a: compile(x.F)}
		case *fol.Implies:
			// L => R is !L or R, evaluated in that order.
			return compile(g.solver.pool.MkOr(g.solver.pool.MkNot(x.L), x.R))
		case fol.Formula:
			nd = node{op: fAtom, a: -1}
			if id, ok := g.atomIdx[x]; ok {
				nd.a = int32(id)
			}
		case *fol.IntConst:
			nd = node{op: tConst, a: int32(x.N)}
		case *fol.RelApp:
			if _, ok := rels[x.Rel]; !ok {
				rels[x.Rel] = int32(len(rels))
			}
			nd = node{op: tRel, a: rels[x.Rel], b: g.termID(x.T)}
		case *fol.ITE:
			nd = node{op: tITE, a: compile(x.Cond), b: compile(x.Then), c: compile(x.Else)}
		case *fol.MulT:
			nd = operands(tMul, len(x.Fs), func(i int) any { return x.Fs[i] })
		case *fol.AddT:
			nd = operands(tAdd, len(x.Ts), func(i int) any { return x.Ts[i] })
		default:
			panic(fmt.Sprintf("smt: compile on %T", x))
		}
		g.prog = append(g.prog, nd)
		memo[v] = int32(len(g.prog) - 1)
		return memo[v]
	}

	g.root = compile(f)
	for id, a := range g.atoms {
		switch x := a.(type) {
		case *fol.IntEq:
			g.intAtoms = append(g.intAtoms, intAtom{id: id, kind: intEq, l: compile(x.L), r: compile(x.R)})
		case *fol.IntGt0:
			g.intAtoms = append(g.intAtoms, intAtom{id: id, kind: intGt0, l: compile(x.T), r: -1})
		case *fol.IntLe1:
			g.intAtoms = append(g.intAtoms, intAtom{id: id, kind: intLe1, l: compile(x.T), r: -1})
		}
	}
	g.th.init(len(rels), len(g.terms))
}

// conjuncts follows the root conjuncts — the root's operands, or the root
// alone when it is no conjunction — through the search. eval of a conjunct
// reads only the atoms under it, so its value and the first undecided atom it
// meets change only when one of those atoms is assigned or unassigned:
// assigned re-evaluates just the conjuncts that read the atom, saving their
// previous state on a trail that undo restores when the search backtracks.
type conjuncts struct {
	nodes []int32
	one   [1]int32 // nodes of a root that is no conjunction
	// occ[occAt[a]:occAt[a+1]] lists the conjuncts that read atom a.
	occAt, occ []int32
	// val and open are each conjunct's value and the first undecided atom its
	// eval met (-1 for none); openBits marks the conjuncts that met one, and
	// nFalse and nOpen count the false and the open conjuncts.
	val           []int8
	open          []int32
	openBits      []uint64
	nFalse, nOpen int
	trail         []conjSave
	// stamp marks the nodes a conjunct's walk has met while occ is built.
	stamp []int32
}

// conjSave is a conjunct's state before an assignment re-evaluated it.
type conjSave struct {
	c, open int32
	val     int8
}

// initConjuncts lists the root conjuncts and the atoms each reads, and
// evaluates them under the empty assignment.
func (g *grounder) initConjuncts() {
	cj := g.conj
	if r := g.prog[g.root]; r.op == fAnd {
		cj.nodes = g.kids[r.a:r.b]
	} else {
		cj.one[0] = g.root
		cj.nodes = cj.one[:]
	}
	n := int32(len(cj.nodes))
	// Count each atom's conjuncts into occAt[a+2]; after the prefix sums
	// occAt[a+1] is where a's list starts, and filling it moves occAt[a+1]
	// to where the list ends, which is where a+1's starts.
	cj.occAt = resize(cj.occAt, len(g.atoms)+2)
	cj.stamp = resize(cj.stamp, len(g.prog))
	for c, k := range cj.nodes {
		g.readers(k, int32(c), int32(c)+1, false)
	}
	for i := 1; i < len(cj.occAt); i++ {
		cj.occAt[i] += cj.occAt[i-1]
	}
	cj.occ = resize(cj.occ, int(cj.occAt[len(cj.occAt)-1]))
	for c, k := range cj.nodes {
		g.readers(k, int32(c), n+int32(c)+1, true)
	}

	cj.val = resize(cj.val, int(n))
	cj.open = resize(cj.open, int(n))
	cj.openBits = resize(cj.openBits, (int(n)+63)/64)
	cj.nFalse, cj.nOpen, cj.trail = 0, 0, cj.trail[:0]
	for c := range n {
		cj.val[c] = evalTrue // counted nowhere: set has nothing to take back
		g.evalConjunct(c)
	}
}

// readers counts conjunct c once for every atom node n reads (fill unset), or
// enters it in the atoms' lists (fill set). s stamps the nodes met, so a
// subformula shared inside the conjunct is walked once.
func (g *grounder) readers(n, c, s int32, fill bool) {
	cj := g.conj
	if cj.stamp[n] == s {
		return
	}
	cj.stamp[n] = s
	nd := g.prog[n]
	switch nd.op {
	case fAtom:
		if fill {
			cj.occ[cj.occAt[nd.a+1]] = c
			cj.occAt[nd.a+1]++
		} else {
			cj.occAt[nd.a+2]++
		}
	case fNot:
		g.readers(nd.a, c, s, fill)
	case fAnd, fOr:
		for _, k := range g.kids[nd.a:nd.b] {
			g.readers(k, c, s, fill)
		}
	}
}

// resize returns s with length n and every element zero, reusing its array
// when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// evalConjunct re-evaluates conjunct c.
func (g *grounder) evalConjunct(c int32) {
	g.open = -1
	g.conj.set(c, g.eval(g.conj.nodes[c]), int32(g.open))
}

// assigned re-evaluates the conjuncts that read atom, just assigned, saving
// their state for undo.
func (g *grounder) assigned(atom int) {
	cj := g.conj
	for _, c := range cj.occ[cj.occAt[atom]:cj.occAt[atom+1]] {
		cj.trail = append(cj.trail, conjSave{c: c, open: cj.open[c], val: cj.val[c]})
		g.evalConjunct(c)
	}
}

// undo restores the conjuncts re-evaluated since the trail had length mark.
func (cj *conjuncts) undo(mark int) {
	for i := len(cj.trail) - 1; i >= mark; i-- {
		s := cj.trail[i]
		cj.set(s.c, s.val, s.open)
	}
	cj.trail = cj.trail[:mark]
}

// set gives conjunct c its state, keeping the counts and openBits in step.
func (cj *conjuncts) set(c int32, val int8, open int32) {
	cj.count(c, -1)
	cj.val[c], cj.open[c] = val, open
	cj.count(c, 1)
	if bit := uint64(1) << (c & 63); open >= 0 {
		cj.openBits[c>>6] |= bit
	} else {
		cj.openBits[c>>6] &^= bit
	}
}

func (cj *conjuncts) count(c int32, d int) {
	switch cj.val[c] {
	case evalFalse:
		cj.nFalse += d
	case evalOpen:
		cj.nOpen += d
	}
}

// evalRoot evaluates the whole formula like eval(g.root), from the state of
// its conjuncts: false if one is, else open if one is, else true. For an
// open formula g.open receives the atom a left-to-right pass meets first,
// the first undecided atom of the first conjunct that met one.
func (g *grounder) evalRoot() int8 {
	cj := g.conj
	switch {
	case cj.nFalse > 0:
		return evalFalse
	case cj.nOpen == 0:
		return evalTrue
	}
	for i, w := range cj.openBits {
		if w != 0 {
			g.open = int(cj.open[i<<6+bits.TrailingZeros64(w)])
			break
		}
	}
	return evalOpen
}

// eval evaluates a compiled formula under the partial assignment; g.open
// receives the first undecided atom met when it is still unset.
func (g *grounder) eval(n int32) int8 {
	nd := g.prog[n]
	switch nd.op {
	case fTrue:
		return evalTrue
	case fFalse:
		return evalFalse
	case fAtom:
		v := g.assign[nd.a]
		if v == evalOpen && g.open < 0 {
			g.open = int(nd.a)
		}
		return v
	case fNot:
		return -g.eval(nd.a)
	}
	// A disjunction is decided by its first true operand, a conjunction by
	// its first false one; otherwise one open operand leaves it open.
	decisive := int8(evalTrue)
	if nd.op == fAnd {
		decisive = evalFalse
	}
	res := -decisive
	for _, k := range g.kids[nd.a:nd.b] {
		switch g.eval(k) {
		case decisive:
			return decisive
		case evalOpen:
			res = evalOpen
		}
	}
	return res
}

// evalCond evaluates the condition of an ITE inside an integer atom. A
// condition atom that is undecided — not assigned and, for an equality, not
// derivable from the closure either — makes the literal unusable: g.condOK
// drops and the first such atom of a theory check is kept in g.needAtom for
// dpll to branch on.
func (g *grounder) evalCond(n int32) bool {
	nd := g.prog[n]
	switch nd.op {
	case fTrue, fFalse:
		return nd.op == fTrue
	case fNot:
		return !g.evalCond(nd.a)
	case fAnd, fOr:
		for _, k := range g.kids[nd.a:nd.b] {
			if g.evalCond(k) == (nd.op == fOr) {
				return nd.op == fOr
			}
		}
		return nd.op == fAnd
	}
	if nd.a >= 0 {
		// Equalities decided by the closure when derivable, else by the atom.
		if eq := g.atomEq[nd.a]; eq[0] >= 0 && g.cc.rep[eq[0]] == g.cc.rep[eq[1]] {
			return true
		}
		if v := g.assign[nd.a]; v != evalOpen {
			return v == evalTrue
		}
		if g.needAtom < 0 {
			g.needAtom = int(nd.a)
		}
	}
	g.condOK = false
	return false
}
