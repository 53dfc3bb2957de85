package smt

import (
	"fmt"

	"wetune/internal/fol"
	"wetune/internal/template"
)

// The ground formula and the terms of its integer atoms are compiled once per
// decide() into flat arrays with atoms, tuple terms and relation symbols
// resolved to dense numbers. Children keep their source order and evaluation
// keeps the source short-circuit rules, so the first undecided atom a pass
// meets — the atom DPLL branches on — is a property of the formula alone.

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
	if r := g.prog[g.root]; r.op == fAnd {
		g.done = make([]bool, r.b-r.a)
	}
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

// evalRoot evaluates the whole formula like eval(g.root), skipping what the
// assignments above this DPLL node already settled: a root conjunct that
// came out true without reading an undecided atom reads the same values in
// the same order under every extension of the assignment, so until the
// search backtracks past this node (unsettle) it can neither turn false nor
// contribute the atom to branch on.
func (g *grounder) evalRoot() int8 {
	nd := g.prog[g.root]
	if nd.op != fAnd {
		return g.eval(g.root)
	}
	res := int8(evalTrue)
	for i, k := range g.kids[nd.a:nd.b] {
		if g.done[i] {
			continue
		}
		g.sawOpen = false
		switch g.eval(k) {
		case evalFalse:
			return evalFalse
		case evalOpen:
			res = evalOpen
		case evalTrue:
			if !g.sawOpen {
				g.done[i] = true
				g.settled = append(g.settled, int32(i))
			}
		}
	}
	return res
}

// unsettle forgets the conjuncts settled since mark.
func (g *grounder) unsettle(mark int) {
	for _, i := range g.settled[mark:] {
		g.done[i] = false
	}
	g.settled = g.settled[:mark]
}

// eval evaluates a compiled formula under the partial assignment; g.open
// receives the first undecided atom met when it is still unset, and
// g.sawOpen is raised by any.
func (g *grounder) eval(n int32) int8 {
	nd := g.prog[n]
	switch nd.op {
	case fTrue:
		return evalTrue
	case fFalse:
		return evalFalse
	case fAtom:
		v := g.assign[nd.a]
		if v == evalOpen {
			g.sawOpen = true
			if g.open < 0 {
				g.open = int(nd.a)
			}
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
