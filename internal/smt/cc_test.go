package smt

import (
	"math/rand"
	"slices"
	"testing"
)

// scratchClosure is the test's reference for ccState: the congruence closure
// of the equalities assigned true, rebuilt from nothing by the naive
// all-pairs fixpoint, with the conflict answer read off it.
func scratchClosure(c *ccState, assign []int8) (rep []int32, conflict bool) {
	rep = make([]int32, len(c.rank))
	for i := range rep {
		rep[i] = int32(i)
	}
	join := func(a, b int32) bool {
		a, b = rep[a], rep[b]
		if c.rank[b] < c.rank[a] {
			a, b = b, a
		}
		for i := range rep {
			if rep[i] == b {
				rep[i] = a
			}
		}
		return a != b
	}
	for changed := true; changed; {
		changed = false
		for _, e := range c.eqs {
			changed = (assign[e.atom] == evalTrue && join(e.l, e.r)) || changed
		}
		for _, grp := range c.groups {
			for _, u := range grp {
				for _, v := range grp {
					changed = (rep[c.child[u]] == rep[c.child[v]] && join(u, v)) || changed
				}
			}
		}
	}
	for _, e := range c.eqs {
		conflict = conflict || (assign[e.atom] == evalFalse && rep[e.l] == rep[e.r])
	}
	for _, p := range c.preds {
		for _, q := range c.preds {
			conflict = conflict || (p.sym == q.sym && rep[p.t] == rep[q.t] && assign[p.atom]*assign[q.atom] == -1)
		}
	}
	return rep, conflict
}

// randomCC builds a closure over a random hash-consed term universe — leaves
// and applications of two attribute symbols, keys in random order — with
// random equality and predicate atoms numbered from 0.
func randomCC(rng *rand.Rand) (c *ccState, nAtoms int) {
	nTerms := 2 + rng.Intn(4)
	child := make([]int32, nTerms)
	for i := range child {
		child[i] = -1
	}
	groups := make([][]int32, 2)
	applied := map[[2]int32]bool{}
	for i := rng.Intn(12); i > 0; i-- {
		sym, arg := int32(rng.Intn(2)), int32(rng.Intn(len(child)))
		if !applied[[2]int32{sym, arg}] {
			applied[[2]int32{sym, arg}] = true
			groups[sym] = append(groups[sym], int32(len(child)))
			child = append(child, arg)
		}
	}
	nTerms = len(child)
	rank := make([]int32, nTerms)
	for i, r := range rng.Perm(nTerms) {
		rank[i] = int32(r)
	}
	term := func() int32 { return int32(rng.Intn(nTerms)) }
	var eqs []ccEq
	var preds []ccPred
	for i := 1 + rng.Intn(10); i > 0; i-- {
		eqs = append(eqs, ccEq{atom: int32(nAtoms), l: term(), r: term()})
		nAtoms++
	}
	for i := rng.Intn(8); i > 0; i-- {
		preds = append(preds, ccPred{atom: int32(nAtoms), sym: int32(rng.Intn(2)), t: term()})
		nAtoms++
	}
	c = &ccState{}
	c.init(rank, child, groups, eqs, preds, 2, nAtoms)
	return c, nAtoms
}

// TestCCTrailMatchesScratch drives the closure the way dpll does — assign a
// literal and assert it, later retract it — in random order, and requires
// after every step the partition, the min-key representatives and the
// conflict answer of a from-scratch build, and after every retraction the
// exact state from before the assertion.
func TestCCTrailMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type frame struct {
		atom      int
		mark      int
		rep, next []int32
	}
	for trial := 0; trial < 300; trial++ {
		c, nAtoms := randomCC(rng)
		assign := make([]int8, nAtoms)
		var stack []frame
		check := func(step int) {
			t.Helper()
			rep, conflict := scratchClosure(c, assign)
			if !slices.Equal(c.rep, rep) {
				t.Fatalf("trial %d step %d: representatives %v, from scratch %v", trial, step, c.rep, rep)
			}
			if got := c.conflict(assign); got != conflict {
				t.Fatalf("trial %d step %d: conflict %v, from scratch %v", trial, step, got, conflict)
			}
		}
		for step := 0; step < 60; step++ {
			atom := rng.Intn(nAtoms)
			if push := rng.Intn(3) > 0; push && assign[atom] == evalOpen {
				stack = append(stack, frame{atom, len(c.trail), slices.Clone(c.rep), slices.Clone(c.next)})
				assign[atom] = int8(1 - 2*rng.Intn(2))
				if atom < len(c.eqs) && assign[atom] == evalTrue {
					c.merge(c.eqs[atom].l, c.eqs[atom].r)
				}
			} else if !push && len(stack) > 0 {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				c.undo(f.mark)
				assign[f.atom] = evalOpen
				if !slices.Equal(c.rep, f.rep) || !slices.Equal(c.next, f.next) {
					t.Fatalf("trial %d step %d: retraction left rep %v next %v, before the assertion rep %v next %v",
						trial, step, c.rep, c.next, f.rep, f.next)
				}
			}
			check(step)
		}
	}
}
