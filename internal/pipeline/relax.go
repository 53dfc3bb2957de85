package pipeline

import (
	"context"
	"slices"
	"sort"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/smt"
	"wetune/internal/template"
)

// This file is the constraint-set enumeration/relaxation stage: WeTune's
// SearchRelaxed (§4.3, Algorithm 1) for one template pair. The search
// assumes provability is monotone in the constraint set — constraints only
// add hypotheses, so semantically it is — and takes most-relaxed sets to be
// minimal provable subsets of C*. This verifier is not monotone: 136 of
// 1,005 one-constraint strengthenings of library rules lose their proof
// (ROADMAP item 30), so a deletion the prover refuses may leave a set whose
// subsets would still prove. The relaxer performs deletion-based
// minimization seeded from several deletion orders, with the
// closure/implication pruning of §4.3 (constraints implied by the rest of the
// set are removed without a verifier call).

// searchPair runs constraint enumeration + relaxation for one pair. The
// destination's symbols must already be distinct from the source's (see
// RenameApart). Cancelling ctx aborts between prover calls and interrupts the
// in-flight proof; the rules found so far are returned.
func searchPair(ctx context.Context, src, dest *template.Node, opts Options, ct *counters) []Rule {
	cstar := constraint.EnumerateAtMost(src, dest, opts.maxConstraints)
	if cstar == nil {
		ct.pairsSkipped.Add(1)
		opts.Metrics.Counter(metricPairsSkipped).Inc()
		return nil
	}
	ct.pairsTried.Add(1)
	opts.Metrics.Counter(metricPairsTried).Inc()
	s := newRelaxer(smt.WithMemo(ctx, &opts.Cache.memo), src, dest, opts, ct)
	rules := s.search(cstar, opts.deletionOrders)
	if s.interrupted {
		ct.unsearched.Add(1)
	}
	return rules
}

// search relaxes the pair from C* in the given number of deletion orders,
// returning the rules its minimal sets make.
func (s *relaxer) search(cstar *constraint.Set, orders int) []Rule {
	src, dest := s.src, s.dest
	seen := map[string]bool{}
	var rules []Rule
	// C* contains mutually conflicting attribute-source choices
	// (SubAttrs(a, a_r) for several r); the paper restricts the search to
	// non-conflicting subsets. We start one minimization per plausible
	// source assignment.
	for _, start := range sourceVariants(cstar, src, dest) {
		if !s.prove(start) {
			continue
		}
		for ord := 0; ord < orders; ord++ {
			minimal, ok := s.minimize(start, ord)
			if !ok {
				return rules // budget exhausted or cancelled: keep what we have
			}
			key := minimal.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			if u := constraint.Unify(minimal); !DestCovered(src, dest, u) || trivialRule(src, dest, u) {
				continue
			}
			rules = append(rules, Rule{Src: src, Dest: dest, Constraints: minimal})
		}
	}
	return rules
}

// newRelaxer sets up the relaxation of one pair.
func newRelaxer(ctx context.Context, src, dest *template.Node, opts Options, ct *counters) *relaxer {
	s := &relaxer{
		ctx: ctx, src: src, dest: dest,
		prover:  opts.PairProver(src, dest),
		budget:  opts.maxProverCallsPerPair,
		memo:    map[string]bool{},
		implies: constraint.Implies,
		ct:      ct,
	}
	if opts.DisablePruning {
		s.implies = nil
	}
	return s
}

type relaxer struct {
	ctx       context.Context
	src, dest *template.Node
	prover    Prover
	budget    int
	calls     int
	exhausted bool
	// interrupted records that the context, not the budget, exhausted it.
	interrupted bool
	// memo holds the pair's verdicts by constraint-set key.
	memo map[string]bool
	// spare is storage for minimize's next deletion candidate: a set no one
	// reads any more, never one minimize returned.
	spare *constraint.Set
	// implies is the §4.3 implication test, nil when pruning is disabled.
	implies func(*constraint.Set, constraint.C) bool
	ct      *counters
}

// prove decides one candidate constraint set. The pair's memo answers a set
// asked before without a prover invocation or a charge to the budget; every
// other query is a prover call. A verdict from an interrupted proof is never
// memoized.
func (s *relaxer) prove(cs *constraint.Set) bool {
	key := cs.Key()
	if v, ok := s.memo[key]; ok {
		s.ct.memoHits.Add(1)
		s.ct.hits.Inc()
		return v
	}
	if s.calls >= s.budget {
		s.exhausted = true
		return false
	}
	if s.ctx.Err() != nil {
		s.exhausted, s.interrupted = true, true
		return false
	}
	s.calls++
	s.ct.proverCalls.Add(1)
	s.ct.misses.Inc()
	begin := time.Now()
	v := s.prover(s.ctx, s.src, s.dest, cs)
	s.ct.proverSeconds.Observe(time.Since(begin))
	if s.ctx.Err() != nil {
		// The proof was interrupted: its conservative "false" is no verdict.
		s.exhausted, s.interrupted = true, true
		return false
	}
	s.memo[key] = v
	return v
}

// minimize performs deletion-based minimization in the given order variant.
// ok=false signals budget exhaustion or cancellation (result unusable).
func (s *relaxer) minimize(cstar *constraint.Set, order int) (*constraint.Set, bool) {
	items := cstar.Items()
	switch order % 3 {
	case 1:
		for i, j := 0, len(items)-1; i < j; i, j = i+1, j-1 {
			items[i], items[j] = items[j], items[i]
		}
	case 2:
		sort.SliceStable(items, func(i, j int) bool { return items[i].Kind > items[j].Kind })
	}
	cur := constraint.NewSet(items...)
	for _, c := range items {
		if !cur.Has(c) {
			continue
		}
		// Each candidate is built in s.spare, the storage of the last one
		// refused or of the set the last one accepted replaced: nothing reads
		// those any more, since no prover keeps a set past its call.
		without := cur.Without(c, s.spare)
		// Implied member: removal is semantically free (§4.3 closure
		// pruning) — no verifier call needed.
		if (s.implies != nil && s.implies(without, c)) || s.prove(without) {
			cur, without = without, cur
		}
		s.spare = without
		if s.exhausted {
			return nil, false
		}
	}
	return cur, true
}

// RenameApart is template.RenameApart, kept for the callers that prepare
// pairs for RunPair.
func RenameApart(src, dest *template.Node) *template.Node {
	return template.RenameApart(src, dest)
}

// sourceVariants splits C* into non-conflicting starting sets: for each
// attribute symbol with several SubAttrs(a, a_r) candidates, pick one
// relation source per variant, guided by where the attribute occurs in the
// templates. The cartesian product is capped.
func sourceVariants(cstar *constraint.Set, src, dest *template.Node) []*constraint.Set {
	// Structural candidates: the relations under the operator that uses a.
	structural := map[template.Sym]map[template.Sym]bool{}
	addCand := func(a template.Sym, rels []template.Sym) {
		if structural[a] == nil {
			structural[a] = map[template.Sym]bool{}
		}
		for _, r := range rels {
			structural[a][r] = true
		}
	}
	for _, t := range []*template.Node{src, dest} {
		t.Walk(func(n *template.Node) {
			switch n.Op {
			case template.OpProj, template.OpSel:
				addCand(n.Attrs, n.Children[0].RelSyms())
			case template.OpInSub:
				addCand(n.Attrs, n.Children[0].RelSyms())
			case template.OpIJoin, template.OpLJoin, template.OpRJoin:
				addCand(n.Attrs, n.Children[0].RelSyms())
				addCand(n.Attrs2, n.Children[1].RelSyms())
			case template.OpAgg:
				addCand(n.Attrs, n.Children[0].RelSyms())
				addCand(n.Attrs2, n.Children[0].RelSyms())
			}
		})
	}
	// Collect the SubAttrs(a, a_r) members of C* grouped by attribute.
	type srcChoice struct {
		attr template.Sym
		rels []template.Sym
	}
	var choices []srcChoice
	grouped := map[template.Sym][]template.Sym{}
	for _, c := range cstar.Items() {
		if c.Kind != constraint.SubAttrs || c.Syms[1].Kind != template.KAttrsOf {
			continue
		}
		rel := template.Sym{Kind: template.KRel, ID: c.Syms[1].ID}
		if cands := structural[c.Syms[0]]; cands != nil && !cands[rel] {
			continue // structurally impossible source
		}
		grouped[c.Syms[0]] = append(grouped[c.Syms[0]], rel)
	}
	for a, rels := range grouped {
		choices = append(choices, srcChoice{attr: a, rels: rels})
	}
	sort.Slice(choices, func(i, j int) bool {
		return choices[i].attr.ID < choices[j].attr.ID
	})
	// Base set: everything except attribute-source SubAttrs.
	var base []constraint.C
	for _, c := range cstar.Items() {
		if c.Kind == constraint.SubAttrs && c.Syms[1].Kind == template.KAttrsOf {
			continue
		}
		base = append(base, c)
	}
	variants := []*constraint.Set{constraint.NewSet(base...)}
	for _, ch := range choices {
		var next []*constraint.Set
		for _, v := range variants {
			for _, rel := range ch.rels {
				next = append(next, v.Union(constraint.NewSet(
					constraint.New(constraint.SubAttrs, ch.attr, template.AttrsOf(rel)))))
			}
			if len(ch.rels) == 0 {
				next = append(next, v)
			}
		}
		if len(next) > 6 {
			next = next[:6]
		}
		variants = next
	}
	return variants
}

// trivialRule reports that the destination is identical to the source after
// symbol unification — applying it would be a no-op.
func trivialRule(src, dest *template.Node, u constraint.Unification) bool {
	reps := u.Reps()
	return src.Substitute(reps).String() == dest.Substitute(reps).String()
}

// DestCovered checks that every symbol of the destination template is either
// shared with the source or unified with a source symbol — otherwise the
// rewrite could not instantiate the destination.
func DestCovered(src, dest *template.Node, u constraint.Unification) bool {
	srcSyms := src.Symbols()
	for _, sy := range dest.Symbols() {
		if sy.Kind == template.KAttrsOf || slices.Contains(srcSyms, sy) {
			continue
		}
		rep := u.Rep(sy)
		if !slices.ContainsFunc(srcSyms, func(ss template.Sym) bool { return ss.Kind == sy.Kind && u.Rep(ss) == rep }) {
			return false
		}
	}
	return true
}

func sortRules(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool {
		a := rules[i].Src.String() + "|" + rules[i].Dest.String() + "|" + rules[i].Constraints.Key()
		b := rules[j].Src.String() + "|" + rules[j].Dest.String() + "|" + rules[j].Constraints.Key()
		return a < b
	})
}
