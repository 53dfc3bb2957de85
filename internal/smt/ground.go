package smt

import (
	"slices"
	"strings"

	"wetune/internal/fol"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// grounder decides a ground (quantifier-free after preprocessing) formula by
// DPLL over its atoms with a theory check combining congruence closure over
// tuple terms and a conservative natural-number monomial analysis.
//
// Soundness contract: a branch is pronounced conflicting only when the
// assigned literals are genuinely inconsistent; Unsat is reported only when
// every branch conflicts. Sat/Unknown answers may be imprecise (they reject a
// rule, which is the conservative direction).
//
// All formulas reaching the grounder are canonical pool nodes. decide()
// resolves them once: atoms and tuple terms get dense numbers, the formula
// and the integer atoms' terms are compiled to flat node arrays (compile.go),
// and the root conjuncts' values (compile.go) and one congruence closure
// (cc.go) follow the assignment with undo trails. A DPLL node costs what its
// literal changed: the conjuncts that read the atom are re-evaluated, and a
// congruence conflict is looked for among all literals only when the literal
// merged classes; nothing is looked up by pointer or rebuilt from the
// assignment.
type grounder struct {
	solver  *solver
	atoms   []fol.Formula
	atomIdx scratchMap[fol.Formula, int]
	propN   int
	unknown bool
	nodes   int
	// needAtom and condOK are evalCond's out-parameters (compile.go);
	// degreeOverflow is evalPoly's: a monomial outgrew its packing.
	needAtom       int
	condOK         bool
	degreeOverflow bool

	// assign holds the partial assignment by atom id: evalOpen, evalTrue or
	// evalFalse. open is eval's out-parameter: the first undecided atom met.
	assign []int8
	open   int

	// inst is the ground tuple terms quantifiers are instantiated over; defs
	// the defining clauses of the propositions prepTerm introduces.
	inst []uexpr.Tuple
	defs []fol.Formula

	// The compiled formula and integer terms; root is the formula's node,
	// conj the state of its conjuncts. memo, rels and operands are
	// compileAll's: the node of each formula or term compiled, the dense
	// number of each relation symbol, and the stack operands are compiled on.
	prog     []node
	kids     []int32
	root     int32
	conj     conjuncts
	memo     scratchMap[any, int32]
	rels     scratchMap[template.Sym, int32]
	operands []int32
	// atomEq[id] holds the term numbers of a tuple-equality atom (-1, -1
	// otherwise).
	atomEq   [][2]int32
	intAtoms []intAtom

	// Ground tuple-term universe, built by buildUniverse after atom
	// collection. Index i describes g.terms[i]; keys holds the pool's
	// canonical strings, whose order alone picks class representatives
	// (keeping verdicts independent of registration order).
	terms   []uexpr.Tuple
	termIdx scratchMap[uexpr.Tuple, int32]
	keys    []string
	order   []int32 // buildUniverse's terms in key order
	cc      ccState
	th      theoryScratch
}

// release returns g emptied for the next solve (solver.release): the tables
// reuse keeps, and the closure's, the conjuncts' and the theory's arrays,
// which the next decide sizes anew (resize) and so never clears past what it
// uses. Every other field is zero.
func (g *grounder) release() grounder {
	g.atomIdx.empty()
	g.termIdx.empty()
	g.memo.empty()
	g.rels.empty()
	return grounder{
		atoms:    reuse(g.atoms),
		atomIdx:  g.atomIdx,
		assign:   g.assign,
		defs:     reuse(g.defs),
		prog:     reuse(g.prog),
		kids:     reuse(g.kids),
		conj:     g.conj,
		memo:     g.memo,
		rels:     g.rels,
		operands: reuse(g.operands),
		atomEq:   g.atomEq,
		intAtoms: reuse(g.intAtoms),
		terms:    reuse(g.terms),
		termIdx:  g.termIdx,
		keys:     reuse(g.keys),
		order:    g.order,
		cc:       g.cc,
		th:       g.th,
	}
}

// decide preprocesses away embedded quantifiers and runs DPLL.
func (g *grounder) decide(f fol.Formula) Result {
	g.inst = g.solver.groundTerms([]fol.Formula{f})
	if len(g.inst) == 0 {
		g.inst = []uexpr.Tuple{g.solver.freshSkolem()}
	}
	f = g.prep(f, 0)
	all := g.solver.pool.MkAnd(append([]fol.Formula{f}, g.defs...)...)
	g.collectAtoms(all)
	if len(g.atoms) > maxAtoms {
		// What solve's streamed count missed: atoms under quantifiers.
		g.giveUp(StopAtoms)
		return Unknown
	}
	g.buildUniverse()
	g.compileAll(all)
	g.assign = resize(g.assign, len(g.atoms))
	g.initConjuncts()
	res := g.dpll()
	if res == Unsat && g.unknown {
		return Unknown
	}
	return res
}

// prep eliminates quantifiers from a positive-context NNF formula:
// Forall -> finite conjunction of instances over g.inst (weaker: sound for
// UNSAT); Exists -> skolem constant (equisatisfiable); ITE conditions
// containing quantifiers -> fresh propositional atom with sound defining
// clauses in g.defs (prepTerm). Everything else is prepped child by child.
func (g *grounder) prep(f fol.Formula, depth int) fol.Formula {
	p := g.solver.pool
	if depth > 6 {
		g.giveUp(StopDepth)
		return p.True()
	}
	if x, ok := f.(*fol.Forall); ok {
		// Weakening marker: if the pool is non-trivial this is an
		// approximation of the universal, but conjunction of consequences is
		// sound for UNSAT.
		var insts []fol.Formula
		if !g.solver.eachInstance(x.Vars, x.Body, g.inst, 1024, func(inst fol.Formula) bool {
			insts = append(insts, g.prep(inst, depth+1))
			return true
		}) {
			g.giveUp(StopCombinations)
			return p.True()
		}
		return p.MkAnd(insts...)
	}
	if x, ok := f.(*fol.Exists); ok {
		body := x.Body
		for _, v := range x.Vars {
			body = p.SubstFormula(body, v.ID, g.solver.freshSkolem())
		}
		return g.prep(body, depth+1)
	}
	if x, ok := f.(*fol.Implies); ok {
		return g.prep(p.MkOr(p.MkNot(x.L), x.R), depth)
	}
	m := fol.Mapper{
		Formula: func(h fol.Formula) fol.Formula { return g.prep(h, depth) },
		Term:    func(t fol.Term) fol.Term { return g.prepTerm(t, depth) },
	}
	return m.MapFormula(f, p)
}

// prepTerm rewrites ITE conditions that contain quantifiers into fresh
// propositional atoms with sound defining clauses (see package comment), and
// preps every other child.
func (g *grounder) prepTerm(t fol.Term, depth int) fol.Term {
	p := g.solver.pool
	if x, ok := t.(*fol.ITE); ok && hasQuantifier(x.Cond, false) {
		prop := g.freshProp()
		// P => C: strengthen C by skolemizing its existentials.
		cStr := g.prep(x.Cond, depth+1)
		g.defs = append(g.defs, p.MkOr(p.MkNot(prop), cStr))
		// C => P, approximated instance-wise over the pool.
		for _, inst := range g.existInstances(x.Cond) {
			instP := g.prep(inst, depth+1)
			g.defs = append(g.defs, p.MkOr(p.MkNot(instP), prop))
		}
		return p.MkITE(prop, g.prepTerm(x.Then, depth), g.prepTerm(x.Else, depth))
	}
	m := fol.Mapper{
		Formula: func(h fol.Formula) fol.Formula { return g.prep(h, depth) },
		Term:    func(u fol.Term) fol.Term { return g.prepTerm(u, depth) },
	}
	return m.MapTerm(t, p)
}

// existInstances instantiates the top-level existentials of a condition over
// the pool (each instance implies the condition): a disjunction's operands
// each, an existential's body over every combination of g.inst.
func (g *grounder) existInstances(f fol.Formula) (out []fol.Formula) {
	if x, ok := f.(*fol.Or); ok {
		for _, h := range x.Fs {
			out = append(out, g.existInstances(h)...)
		}
		return out
	}
	x, ok := f.(*fol.Exists)
	if !ok {
		return []fol.Formula{f}
	}
	// Over 512 combinations: no instance, a weaker definition of the atom.
	g.solver.eachInstance(x.Vars, x.Body, g.inst, 512, func(inst fol.Formula) bool {
		out = append(out, inst)
		return true
	})
	return out
}

var propSym = template.Sym{Kind: template.KPred, ID: 1 << 22}

func (g *grounder) freshProp() fol.Formula {
	g.propN++
	p := g.solver.pool
	return p.MkPredApp(
		template.Sym{Kind: template.KPred, ID: propSym.ID + g.propN},
		p.MkVar(propSym.ID+g.propN))
}

// hasQuantifier reports whether f holds a quantifier in its boolean structure
// or, with deep set, anywhere: in the ITE conditions of its integer atoms too.
func hasQuantifier(f fol.Formula, deep bool) bool {
	found := false
	var m fol.Mapper
	m = fol.Mapper{
		Formula: func(h fol.Formula) fol.Formula { m.MapFormula(h, nil); return h },
		Bind:    func([]*uexpr.TVar) bool { found = true; return true },
	}
	if deep {
		m.Term = func(t fol.Term) fol.Term { m.MapTerm(t, nil); return t }
	}
	m.MapFormula(f, nil)
	return found
}

// giveUp marks the search incomplete — Unsat can no longer be reported — and
// records cause if it is the first bound to fire.
func (g *grounder) giveUp(cause Stop) {
	g.unknown = true
	g.solver.stop(cause)
}

// --- atom interning and DPLL ---

// collectAtoms gives every atom of f a dense id, in formula order. Atoms are
// canonical pool nodes, so identity is pointer identity — structurally equal
// atoms share one id.
func (g *grounder) collectAtoms(f fol.Formula) {
	walkAtoms(f, func(a fol.Formula) bool {
		if _, known := g.atomIdx.m[a]; known {
			return false
		}
		g.atomIdx.m[a] = len(g.atoms)
		g.atoms = append(g.atoms, a)
		return true
	})
}

// walkAtoms calls visit on the atoms of f outside quantifiers, in formula
// order; where visit returns true it goes on into the conditions inside the
// atom, which are formulas of atoms themselves. An atom is a formula with
// tuple or term arguments: f is one when the walk meets such an argument.
func walkAtoms(f fol.Formula, visit func(fol.Formula) bool) {
	entered := 0 // f as an atom: 0 not yet visited, 1 go on inside, -1 not
	atom := func() bool {
		if entered == 0 {
			entered = -1
			if visit(f) {
				entered = 1
			}
		}
		return entered > 0
	}
	var m fol.Mapper
	m = fol.Mapper{
		Formula: func(h fol.Formula) fol.Formula { walkAtoms(h, visit); return h },
		Term: func(t fol.Term) fol.Term {
			if atom() {
				m.MapTerm(t, nil)
			}
			return t
		},
		Tuple: func(t uexpr.Tuple) uexpr.Tuple { atom(); return t },
		Bind:  func([]*uexpr.TVar) bool { return true },
	}
	m.MapFormula(f, nil)
}

// buildUniverse registers every tuple term reachable from the collected atoms
// (children included) under a dense numbering and hands the congruence
// closure its static structure: key ranks, attribute-congruence groups and
// the equality/predicate atoms in atom order. Terms reaching the theory
// solver later (ITE evaluation) are always subterms of collected atoms, so
// the universe is complete by construction.
func (g *grounder) buildUniverse() {
	for _, a := range g.atoms {
		walkTuples(a, func(t uexpr.Tuple) { g.termID(t) })
	}
	// Attribute applications grouped by symbol, and rank[t], the position of
	// t's key in sorted order: comparing ranks is comparing keys. The arrays
	// are the last solve's closure's, which init takes back.
	n := len(g.terms)
	child, rank := resize(g.cc.child, n), resize(g.cc.rank, n)
	g.order = resize(g.order, n)
	groups := g.cc.groups[:0]
	groupOf := map[template.Sym]int{}
	for i, t := range g.terms {
		child[i], g.order[i] = -1, int32(i)
		if ta, ok := t.(*uexpr.TAttr); ok {
			child[i] = g.termIdx.m[ta.T]
			gi, seen := groupOf[ta.Attrs]
			if !seen {
				gi, groupOf[ta.Attrs] = len(groups), len(groups)
				// A group of an earlier solve lends its array.
				groups = slices.Grow(groups, 1)[:gi+1]
				groups[gi] = groups[gi][:0]
			}
			groups[gi] = append(groups[gi], int32(i))
		}
	}
	// Keys are distinct (one pooled term each), so any sort is the one order.
	slices.SortFunc(g.order, func(a, b int32) int { return strings.Compare(g.keys[a], g.keys[b]) })
	for r, t := range g.order {
		rank[t] = int32(r)
	}
	eqs, preds := g.cc.eqs[:0], g.cc.preds[:0]
	predIdx := map[template.Sym]int32{}
	g.atomEq = resize(g.atomEq, len(g.atoms))
	addPred := func(id int, sym template.Sym, t uexpr.Tuple) {
		si, ok := predIdx[sym]
		if !ok {
			si = int32(len(predIdx))
			predIdx[sym] = si
		}
		preds = append(preds, ccPred{atom: int32(id), sym: si, t: g.termID(t)})
	}
	for id, a := range g.atoms {
		g.atomEq[id] = [2]int32{-1, -1}
		// Atom classification: each kind the closure decides is its own
		// kind of fact, so this keeps a switch of its own.
		switch x := a.(type) {
		case *fol.TupleEq:
			g.atomEq[id] = [2]int32{g.termID(x.L), g.termID(x.R)}
			eqs = append(eqs, ccEq{atom: int32(id), l: g.atomEq[id][0], r: g.atomEq[id][1]})
		case *fol.PredApp:
			addPred(id, x.Pred, x.T)
		case *fol.IsNull:
			// IsNull is congruent like a predicate of its own.
			addPred(id, template.Sym{Kind: template.KPred, ID: -1}, x.T)
		}
	}
	g.cc.init(rank, child, groups, eqs, preds, len(predIdx), len(g.atoms))
}

// termID returns the dense index of a canonical tuple term, registering it
// (children first) on first sight.
func (g *grounder) termID(t uexpr.Tuple) int32 {
	if i, ok := g.termIdx.m[t]; ok {
		return i
	}
	uexpr.MapTuple(t, func(c uexpr.Tuple) uexpr.Tuple { g.termID(c); return c }, nil)
	i := int32(len(g.terms))
	g.terms = append(g.terms, t)
	g.keys = append(g.keys, g.solver.pool.TupleKey(t))
	g.termIdx.m[t] = i
	return i
}

// incrementalHook is nil outside tests. A test that sets it (export_test.go)
// has every DPLL node and every congruence assertion recomputed in full, and
// receives each incremental answer beside the full one: what names the
// answer ("eval", "branch" or "assertCC").
var incrementalHook func(what string, incremental, full int)

// dpll searches below the current assignment. The congruence closure and the
// root conjuncts always describe the assignment on entry: every literal is
// asserted when its atom is assigned and retracted when the branch returns,
// and a branch value the closure refutes is never descended into — so the
// literals of every node entered are free of congruence conflicts.
func (g *grounder) dpll() Result {
	g.nodes++
	g.solver.stats.Nodes++
	if g.nodes > g.solver.opts.MaxNodes {
		g.giveUp(StopNodes)
		return Unknown
	}
	// The clock is read at the first node, so that a search begun past the
	// deadline stops at once, and at every 64th after it: a node costs
	// less than reading it.
	if g.nodes&63 == 1 && g.solver.expired() {
		g.unknown = true
		return Unknown
	}
	g.open = -1
	val := g.evalRoot()
	if incrementalHook != nil {
		g.checkRoot(val)
	}
	switch val {
	case evalFalse:
		return Unsat
	case evalTrue:
		g.needAtom = -1
		if !g.theoryConsistent() {
			return Unsat
		}
		if g.needAtom < 0 || g.assign[g.needAtom] != evalOpen {
			return Sat
		}
		// An integer literal could not be evaluated because an ITE
		// condition atom is unassigned; branch on it for precision.
		g.open = g.needAtom
	}
	open := g.open
	if open < 0 {
		// Shouldn't happen: open formula without an open atom.
		g.unknown = true
		return Unknown
	}
	sawUnknown := false
	g.solver.stats.Decisions++
	for _, v := range [2]int8{evalTrue, evalFalse} {
		g.assign[open] = v
		mark, conjMark := len(g.cc.trail), len(g.conj.trail)
		// Cheap early conflict detection on equality and predicate literals.
		res := Unsat
		if g.assertCC(open, v) {
			g.assigned(open)
			res = g.dpll()
		}
		g.cc.undo(mark)
		g.conj.undo(conjMark)
		g.assign[open] = evalOpen
		if res == Sat {
			return Sat
		}
		g.solver.stats.Backtracks++
		if res == Unknown {
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown
	}
	return Unsat
}

// assertCC adds the literal atom=v to the congruence closure and reports
// whether the assignment is still consistent with it; a literal the closure
// does not track is. The assignment without the literal was (see dpll), so
// unless the literal merged classes it alone can conflict: a negated equality
// inside one class, or a predicate taking the other value of a congruent
// application.
func (g *grounder) assertCC(atom int, v int8) bool {
	eq := g.atomEq[atom]
	if eq[0] < 0 && g.cc.predOf[atom] < 0 {
		return true
	}
	mark := len(g.cc.trail)
	if v == evalTrue && eq[0] >= 0 {
		g.cc.merge(eq[0], eq[1])
	}
	var conflict bool
	switch {
	case len(g.cc.trail) > mark:
		conflict = g.cc.conflict(g.assign)
	case eq[0] >= 0:
		conflict = v == evalFalse && g.cc.rep[eq[0]] == g.cc.rep[eq[1]]
	default:
		conflict = g.cc.predConflict(int32(atom), g.assign)
	}
	if incrementalHook != nil {
		incrementalHook("assertCC", b2i(conflict), b2i(g.cc.conflict(g.assign)))
	}
	return !conflict
}

// checkRoot hands incrementalHook evalRoot's answer beside a full evaluation.
func (g *grounder) checkRoot(val int8) {
	open := g.open
	g.open = -1
	full := g.eval(g.root)
	incrementalHook("eval", int(val), int(full))
	if val == evalOpen {
		incrementalHook("branch", open, g.open)
	}
	g.open = open
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
