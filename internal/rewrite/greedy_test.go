package rewrite

import (
	"sync"

	"wetune/internal/plan"
)

// This file retains the pre-index greedy rewriting loop: every rule is
// attempted at every plan position each step, one strictly-shrinking rewrite
// path is followed, and the loop stops silently after ten steps. It is
// test-only: TestIndexedCandidatesMatchGreedy pins the rule index against its
// candidate enumeration, and TestSearchEquivalentToGreedyOnWorkloads and
// TestSearchNoWorseThanGreedy pin Search against its result.

// GreedyRewrite greedily rewrites p with the retained pre-index loop,
// returning the final plan and the applied rule sequence. ORDER BY
// elimination (§7) runs first, as in Search.
func (rw *Rewriter) GreedyRewrite(p plan.Node) (plan.Node, []Applied) {
	cur := EliminateOrderBy(p)
	var applied []Applied
	const steps = 10
	seen := map[string]bool{plan.Fingerprint(cur): true}
	for step := 0; step < steps; step++ {
		best := pickBest(cur, rw.greedyCandidates(cur), seen)
		if best == nil {
			break
		}
		cur = best.Plan
		seen[plan.Fingerprint(cur)] = true
		applied = append(applied, Applied{RuleNo: best.Rule.No, RuleName: best.Rule.Name})
	}
	return cur, applied
}

// greedyCompiled holds each Rewriter's rules, compiled once in rw.Rules
// order, for the reference loop.
var greedyCompiled sync.Map // *Rewriter → []*CompiledRule

// greedyRules returns rw.Rules compiled, compiling them on first use.
func (rw *Rewriter) greedyRules() []*CompiledRule {
	if crs, ok := greedyCompiled.Load(rw); ok {
		return crs.([]*CompiledRule)
	}
	crs := make([]*CompiledRule, len(rw.Rules))
	for i, r := range rw.Rules {
		crs[i] = CompileRule(r)
	}
	greedyCompiled.Store(rw, crs)
	return crs
}

// greedyCandidates enumerates every single-step rewrite the pre-index way:
// all rules × all positions, with the full matcher invoked for each
// combination.
func (rw *Rewriter) greedyCandidates(p plan.Node) []Candidate {
	m := &Matcher{Schema: rw.Schema}
	var out []Candidate
	for _, cr := range rw.greedyRules() {
		rule := cr.Rule
		for _, path := range nodePaths(p) {
			frag := nodeAt(p, path)
			repl, ok := m.ApplyCompiled(cr, frag)
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
// operator count, the first found among equals. Candidates that do not shrink
// the plan are rejected (termination), as are already-seen plans (cycle
// avoidance for enabler rules like join commutation).
func pickBest(cur plan.Node, cands []Candidate, seen map[string]bool) *Candidate {
	var best *Candidate
	bestSize := plan.Size(cur)
	for i := range cands {
		c := &cands[i]
		if seen[plan.Fingerprint(c.Plan)] {
			continue
		}
		if size := plan.Size(c.Plan); size < bestSize {
			best = c
			bestSize = size
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
