package smt

import (
	"cmp"
	"slices"
)

// ccState is the congruence closure over the grounder's dense term universe.
// It is incremental: merge adds one equality and closes under attribute
// congruence, undo retracts back to a mark, so one closure follows the DPLL
// assignment down and up the search tree instead of being rebuilt per node.
//
// The closure of a set of equalities is unique, and the representative of a
// class is always its member with the smallest canonical key (rank), so the
// state depends only on which equalities are asserted — never on their order
// or on what was asserted and retracted before. Monomial variables
// (theory.go) are named by representatives and inherit that.
type ccState struct {
	// Static: rank orders terms by canonical key, child links an attribute
	// application to its argument (-1 otherwise), groups lists the
	// applications of each attribute symbol.
	rank, child []int32
	groups      [][]int32
	eqs         []ccEq
	// preds is ordered by symbol: symbol s's applications are
	// preds[symAt[s]:symAt[s+1]]. predOf[atom] is the atom's index in preds,
	// or -1.
	preds         []ccPred
	symAt, predOf []int32

	// rep[t] is the representative of t's class; next threads each class as a
	// circular list; trail records the representative each union retired.
	rep, next, trail []int32

	// Stamped scratch, valid where the stamp equals the current one: bucket
	// is keyed by class (congruence signatures within one group), pval by
	// predicate symbol × class (predicate congruence).
	stamp          int32
	bstamp, bucket []int32
	pstamp         []int32
	pval           []int8
}

// ccEq is a tuple-equality atom over term numbers; ccPred a predicate (or
// IsNull) application atom, sym the dense number of its symbol.
type (
	ccEq   struct{ atom, l, r int32 }
	ccPred struct{ atom, sym, t int32 }
)

func (c *ccState) init(rank, child []int32, groups [][]int32, eqs []ccEq, preds []ccPred, nPredSyms, nAtoms int) {
	n := len(rank)
	c.rank, c.child, c.groups, c.eqs, c.preds = rank, child, groups, eqs, preds
	slices.SortStableFunc(preds, func(a, b ccPred) int { return cmp.Compare(a.sym, b.sym) })
	c.symAt = resize(c.symAt, nPredSyms+1)
	c.predOf = resize(c.predOf, nAtoms)
	for i := range c.predOf {
		c.predOf[i] = -1
	}
	for i, p := range preds {
		c.symAt[p.sym+1]++
		c.predOf[p.atom] = int32(i)
	}
	for s := 1; s <= nPredSyms; s++ {
		c.symAt[s] += c.symAt[s-1]
	}
	c.rep = resize(c.rep, n)
	c.next = resize(c.next, n)
	for i := range c.rep {
		c.rep[i], c.next[i] = int32(i), int32(i)
	}
	c.trail = c.trail[:0]
	c.stamp = 0
	c.bstamp = resize(c.bstamp, n)
	c.bucket = resize(c.bucket, n)
	c.pstamp = resize(c.pstamp, n*nPredSyms)
	c.pval = resize(c.pval, n*nPredSyms)
}

// union joins the classes of a and b under the smaller-keyed representative.
func (c *ccState) union(a, b int32) {
	win, lose := c.rep[a], c.rep[b]
	if win == lose {
		return
	}
	if c.rank[lose] < c.rank[win] {
		win, lose = lose, win
	}
	for x := lose; ; {
		c.rep[x] = win
		if x = c.next[x]; x == lose {
			break
		}
	}
	// Exchanging successors splices two circular lists into one — and, done
	// again in reverse order, apart.
	c.next[win], c.next[lose] = c.next[lose], c.next[win]
	c.trail = append(c.trail, lose)
}

// undo retracts every union made since the trail had length mark.
func (c *ccState) undo(mark int) {
	for len(c.trail) > mark {
		lose := c.trail[len(c.trail)-1]
		c.trail = c.trail[:len(c.trail)-1]
		win := c.rep[lose]
		c.next[win], c.next[lose] = c.next[lose], c.next[win]
		for x := lose; ; {
			c.rep[x] = lose
			if x = c.next[x]; x == lose {
				break
			}
		}
	}
}

// merge asserts l = r and closes under congruence: a(t1) ~ a(t2) when
// t1 ~ t2. Each round buckets every attribute group by the class of the
// argument; two applications landing in one bucket are congruent.
func (c *ccState) merge(l, r int32) {
	if c.rep[l] == c.rep[r] {
		return
	}
	c.union(l, r)
	for changed := true; changed; {
		changed = false
		for _, grp := range c.groups {
			c.stamp++
			for _, u := range grp {
				k := c.rep[c.child[u]]
				if c.bstamp[k] != c.stamp {
					c.bstamp[k], c.bucket[k] = c.stamp, u
				} else if v := c.bucket[k]; c.rep[v] != c.rep[u] {
					c.union(u, v)
					changed = true
				}
			}
		}
	}
}

// conflict reports whether the assigned equality and predicate literals
// contradict the closure: a negated equality inside one class, or one
// predicate symbol both true and false on one class.
func (c *ccState) conflict(assign []int8) bool {
	for _, e := range c.eqs {
		if assign[e.atom] == evalFalse && c.rep[e.l] == c.rep[e.r] {
			return true
		}
	}
	c.stamp++
	n := int32(len(c.rep))
	for _, p := range c.preds {
		v := assign[p.atom]
		if v == evalOpen {
			continue
		}
		k := p.sym*n + c.rep[p.t]
		if c.pstamp[k] != c.stamp {
			c.pstamp[k], c.pval[k] = c.stamp, v
		} else if c.pval[k] != v {
			return true
		}
	}
	return false
}

// predConflict reports whether the assigned predicate literal atom disagrees
// with an assigned application of its symbol to a term of the same class —
// the one conflict it can add to a closure that had none.
func (c *ccState) predConflict(atom int32, assign []int8) bool {
	p := c.preds[c.predOf[atom]]
	v, class := assign[atom], c.rep[p.t]
	for _, q := range c.preds[c.symAt[p.sym]:c.symAt[p.sym+1]] {
		if assign[q.atom] == -v && c.rep[q.t] == class {
			return true
		}
	}
	return false
}
