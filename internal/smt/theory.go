package smt

import "slices"

// Integer theory: a conservative natural-number monomial analysis. Every
// assigned integer literal is evaluated to a polynomial over variables
// R@class — relation R applied to a congruence class of tuple terms — and the
// literals are checked together under each zero/positive assignment of those
// variables.
//
// A monomial is its degree vector packed four bits per variable (mono 0 is
// the constant 1), so equal monomials are equal words, a product is a sum,
// and "every variable of m is positive" is a mask test. Polynomials are spans
// of one arena truncated at the start of each check; nothing is allocated.

// maxSplitVars bounds the zero/positive case split (2^14 cases); it also
// keeps every variable inside a mono's 16 fields.
const maxSplitVars = 14

type mono = uint64

// span is a polynomial: the multiset of monomials th.monos[lo:hi] (empty for
// the constant 0).
type span struct{ lo, hi int32 }

// evaledLit is an assigned integer literal with its sides evaluated (r is
// unused for Gt0/Le1).
type evaledLit struct {
	kind intKind
	val  int8
	l, r span
}

type theoryScratch struct {
	nTerms int32
	monos  []mono
	evs    []evaledLit
	// Variable numbering of the current check: varOf[rel*nTerms+class] is
	// valid when varStamp there equals stamp; varKeys lists the numbered keys
	// in order, so a literal that turns out unusable can give its numbers back.
	stamp    int32
	varStamp []int32
	varOf    []uint8
	varKeys  []int32
}

func (th *theoryScratch) init(nRels, nTerms int) {
	th.nTerms = int32(nTerms)
	th.varStamp = make([]int32, nRels*nTerms)
	th.varOf = make([]uint8, nRels*nTerms)
}

// varFor returns the monomial of the variable rel@class, numbering it on
// first use. Variables past the mono width get an empty monomial: the check
// gives up on their count before looking at any.
func (th *theoryScratch) varFor(rel, class int32) mono {
	k := rel*th.nTerms + class
	if th.varStamp[k] != th.stamp {
		th.varStamp[k] = th.stamp
		th.varOf[k] = uint8(min(len(th.varKeys), 16))
		th.varKeys = append(th.varKeys, k)
	}
	return 1 << (4 * th.varOf[k]) // 0 when shifted out
}

// countPos counts monomials whose variables are all positive (pos has all
// four bits of each positive variable's field set).
func (th *theoryScratch) countPos(p span, pos mono) int {
	count := 0
	for _, m := range th.monos[p.lo:p.hi] {
		if m&^pos == 0 {
			count++
		}
	}
	return count
}

// cappedBy counts positive monomials up to the first one holding a variable
// that is not capped (<= 1); allCapped tells whether it ran through, in which
// case the count bounds the polynomial.
func (th *theoryScratch) cappedBy(p span, pos, capped mono) (count int, allCapped bool) {
	for _, m := range th.monos[p.lo:p.hi] {
		if m&^pos != 0 {
			continue
		}
		count++
		if m&^capped != 0 {
			return count, false
		}
	}
	return count, true
}

// samePositive reports whether two sorted polynomials have the same multiset
// of positive monomials, i.e. are identical under pos.
func (th *theoryScratch) samePositive(l, r span, pos mono) bool {
	i, j := l.lo, r.lo
	for {
		for i < l.hi && th.monos[i]&^pos != 0 {
			i++
		}
		for j < r.hi && th.monos[j]&^pos != 0 {
			j++
		}
		if i == l.hi || j == r.hi {
			return i == l.hi && j == r.hi
		}
		if th.monos[i] != th.monos[j] {
			return false
		}
		i++
		j++
	}
}

// theoryConsistent checks the assigned integer literals against the current
// congruence classes. The closure itself needs no check here: dpll never
// descends into an assignment it refutes.
func (g *grounder) theoryConsistent() bool {
	th := &g.th
	th.stamp++
	th.monos, th.evs, th.varKeys = th.monos[:0], th.evs[:0], th.varKeys[:0]
	g.degreeOverflow = false
	assigned := false
	for _, ia := range g.intAtoms {
		v := g.assign[ia.id]
		if v == evalOpen {
			continue
		}
		assigned = true
		// Evaluate polynomials; unresolved ITE conditions make the literal
		// unusable (skipping it is conservative).
		nm, nk := len(th.monos), len(th.varKeys)
		g.condOK = true
		ev := evaledLit{kind: ia.kind, val: v}
		ev.l = g.evalPoly(ia.l)
		if ia.r >= 0 && g.condOK {
			ev.r = g.evalPoly(ia.r)
		}
		if !g.condOK {
			for _, k := range th.varKeys[nk:] {
				th.varStamp[k] = 0
			}
			th.monos, th.varKeys = th.monos[:nm], th.varKeys[:nk]
			continue
		}
		if ia.kind == intEq && v == evalFalse {
			slices.Sort(th.monos[ev.l.lo:ev.l.hi])
			slices.Sort(th.monos[ev.r.lo:ev.r.hi])
		}
		th.evs = append(th.evs, ev)
	}
	if !assigned {
		return true
	}
	n := len(th.varKeys)
	if n > maxSplitVars || g.degreeOverflow {
		g.giveUp(StopCaseSplit)
		return true // too much to case-split; assume consistent
	}
	// Caps: variables whose poly is literally that single variable and that
	// carry a positive IntLe1.
	var capped mono
	for _, ev := range th.evs {
		if ev.kind == intLe1 && ev.val == evalTrue && ev.l.hi-ev.l.lo == 1 {
			if m := th.monos[ev.l.lo]; m&(m-1) == 0 && m&0x1111111111111111 != 0 {
				capped |= m * 0xf
			}
		}
	}
	// Enumerate zero / positive assignments.
	for split := 0; split < 1<<n; split++ {
		if split&1023 == 1023 && g.solver.expired() {
			g.unknown = true
			return true // give up on this split; treated like a timeout
		}
		var pos mono
		for i := 0; i < n; i++ {
			if split&(1<<i) != 0 {
				pos |= 0xf << (4 * i)
			}
		}
		if th.consistentUnder(pos, capped) {
			return true
		}
	}
	return false
}

// consistentUnder checks all evaluated integer literals under one
// zero/positive variable assignment. Conflicts reported here are genuine
// (they hold for every concrete valuation compatible with the assignment).
func (th *theoryScratch) consistentUnder(pos, capped mono) bool {
	for _, ev := range th.evs {
		switch ev.kind {
		case intGt0:
			count := th.countPos(ev.l, pos)
			if ev.val == evalTrue && count == 0 {
				return false
			}
			if ev.val == evalFalse && count > 0 {
				return false // every positive monomial is >= 1
			}
		case intLe1:
			count, allCapped := th.cappedBy(ev.l, pos, capped)
			if ev.val == evalTrue && count >= 2 {
				return false
			}
			if ev.val == evalFalse {
				if count == 0 {
					return false
				}
				if count == 1 && allCapped {
					return false // bounded by 1, cannot be >= 2
				}
			}
		case intEq:
			lc := th.countPos(ev.l, pos)
			rc := th.countPos(ev.r, pos)
			if ev.val == evalTrue {
				if (lc == 0) != (rc == 0) {
					return false
				}
				// Identical positive parts are always equal; different
				// positive parts may still be equal for some valuation, so
				// no conflict is derived there.
			} else {
				if lc == 0 && rc == 0 {
					return false // 0 != 0 is false
				}
				if th.samePositive(ev.l, ev.r, pos) {
					return false // identical polynomials are always equal
				}
				// Distinct non-zero polynomials can differ unless both are
				// capped singletons forced to the same value; conservatively
				// allow.
			}
		}
	}
	return true
}

// evalPoly evaluates a compiled integer term to a polynomial appended to
// th.monos; g.condOK drops when an ITE condition atom is undecided, and the
// result is then meaningless.
func (g *grounder) evalPoly(t int32) span {
	th := &g.th
	start := int32(len(th.monos))
	nd := g.prog[t]
	switch nd.op {
	case tConst:
		for i := int32(0); i < nd.a; i++ {
			th.monos = append(th.monos, 0)
		}
	case tRel:
		th.monos = append(th.monos, th.varFor(nd.a, g.cc.rep[nd.b]))
	case tITE:
		branch := nd.c
		if g.evalCond(nd.a) {
			branch = nd.b
		}
		if g.condOK {
			g.evalPoly(branch)
		}
	case tAdd:
		for _, k := range g.kids[nd.a:nd.b] {
			if g.evalPoly(k); !g.condOK {
				break
			}
		}
	case tMul:
		th.monos = append(th.monos, 0) // the accumulator starts at 1
		for _, k := range g.kids[nd.a:nd.b] {
			f := g.evalPoly(k)
			if !g.condOK {
				break
			}
			// Append acc × f, then move it down over both operands.
			for a := start; a < f.lo; a++ {
				for b := f.lo; b < f.hi; b++ {
					ma, mb := th.monos[a], th.monos[b]
					// Degrees below 8 cannot carry into the next field.
					g.degreeOverflow = g.degreeOverflow || (ma|mb)&0x8888888888888888 != 0
					th.monos = append(th.monos, ma+mb)
				}
			}
			n := copy(th.monos[start:], th.monos[f.hi:])
			th.monos = th.monos[:int(start)+n]
		}
	}
	return span{start, int32(len(th.monos))}
}
