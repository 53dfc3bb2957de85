package rewrite

import (
	"wetune/internal/plan"
)

// This file retains the pre-index greedy rewriting loop exactly as it was
// before the indexed search engine replaced it: every rule is attempted at
// every plan position each step, one strictly-improving rewrite path is
// followed, and the loop stops silently after ten steps. It is test-only: the
// reference for the differential tests (Search must produce identical or
// strictly cheaper plans).

// GreedyRewrite greedily rewrites p with the retained pre-index loop,
// returning the final plan and the applied rule sequence. ORDER BY
// elimination (§7) runs first, as in Search.
func (rw *Rewriter) GreedyRewrite(p plan.Node) (plan.Node, []Applied) {
	cur := EliminateOrderBy(p)
	var applied []Applied
	const steps = 10
	seen := map[string]bool{plan.Fingerprint(cur): true}
	for step := 0; step < steps; step++ {
		best := rw.pickBest(cur, rw.greedyCandidates(cur), seen)
		if best == nil {
			break
		}
		cur = best.Plan
		seen[plan.Fingerprint(cur)] = true
		applied = append(applied, Applied{RuleNo: best.Rule.No, RuleName: best.Rule.Name})
	}
	return cur, applied
}

// greedyCandidates enumerates every single-step rewrite the pre-index way:
// all rules × all positions, with the full matcher (and its per-attempt
// constraint-closure computation) invoked for each combination.
func (rw *Rewriter) greedyCandidates(p plan.Node) []Candidate {
	m := &Matcher{Schema: rw.Schema}
	var out []Candidate
	for _, rule := range rw.Rules {
		for _, path := range nodePaths(p) {
			frag := nodeAt(p, path)
			repl, ok := m.ApplyCompiled(CompileRule(rule), frag)
			if !ok {
				continue
			}
			np := replaceAt(p, path, repl)
			if plan.Fingerprint(np) == plan.Fingerprint(p) {
				continue // no-op application
			}
			// Check the whole plan: a fragment-local rewrite can break
			// references in enclosing operators.
			if _, err := plan.Check(nil, np, rw.Schema); err != nil {
				continue
			}
			out = append(out, Candidate{Plan: np, Rule: rule, Path: append([]int{}, path...)})
		}
	}
	return out
}

// pickBest selects the candidate that most simplifies the plan: smallest
// operator count, then lowest estimated cost. Candidates that neither shrink
// the plan nor reduce cost are rejected (termination), as are already-seen
// plans (cycle avoidance for enabler rules like join commutation).
func (rw *Rewriter) pickBest(cur plan.Node, cands []Candidate, seen map[string]bool) *Candidate {
	curSize := plan.Size(cur)
	curCost := rw.cost(cur, curSize)
	var best *Candidate
	bestSize := curSize
	bestCost := curCost
	for i := range cands {
		c := &cands[i]
		if seen[plan.Fingerprint(c.Plan)] {
			continue
		}
		size := plan.Size(c.Plan)
		cost := rw.cost(c.Plan, size)
		improves := size < bestSize || (size == bestSize && cost < bestCost)
		if improves {
			best = c
			bestSize = size
			bestCost = cost
		}
	}
	return best
}

// nodePaths lists every root-to-node child-index path of p in pre-order (the
// order searchCtx.nodePathsInto reproduces from pooled storage).
func nodePaths(p plan.Node) [][]int {
	var out [][]int
	var rec func(n plan.Node, path []int)
	rec = func(n plan.Node, path []int) {
		out = append(out, append([]int{}, path...))
		for i, c := range n.Children() {
			rec(c, append(path, i))
		}
	}
	rec(p, nil)
	return out
}
