package pipeline

import (
	"context"
	"slices"
	"sort"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/faultinject"
	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/smt"
	"wetune/internal/template"
)

// This file is the constraint-set enumeration/relaxation stage: WeTune's
// SearchRelaxed (§4.3, Algorithm 1) for one template pair. Provability is
// monotone in the constraint set (constraints only add hypotheses), so
// most-relaxed sets are minimal provable subsets of C*; the relaxer performs
// deletion-based minimization seeded from several deletion orders, with the
// closure/implication pruning of §4.3 (constraints implied by the rest of the
// set are removed without a verifier call).

// searchPair runs constraint enumeration + relaxation for one pair. The
// destination's symbols must already be distinct from the source's (see
// RenameApart). Cancelling ctx aborts between prover calls and interrupts the
// in-flight proof; the rules found so far are returned.
func searchPair(ctx context.Context, src, dest *template.Node, opts Options, ct *counters) []Rule {
	cstar := filterRefAttrs(constraint.Enumerate(src, dest), src, dest)
	if cstar.Len() > opts.maxConstraints {
		ct.pairsSkipped.Add(1)
		opts.Metrics.Counter(metricPairsSkipped).Inc()
		return nil
	}
	ct.pairsTried.Add(1)
	opts.Metrics.Counter(metricPairsTried).Inc()
	return newRelaxer(smt.WithMemo(ctx, &opts.Cache.memo), src, dest, opts, ct, opts.Metrics).search(cstar, opts.deletionOrders)
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
func newRelaxer(ctx context.Context, src, dest *template.Node, opts Options, ct *counters, reg *obs.Registry) *relaxer {
	s := &relaxer{
		ctx: ctx, src: src, dest: dest,
		prover:  opts.PairProver(src, dest),
		budget:  opts.maxProverCallsPerPair,
		memo:    map[string]bool{},
		implies: constraint.Implies,
		cache:   opts.Cache,
		ns:      opts.CacheNamespace,
		fp:      newFingerprinter(src, dest),
		ct:      ct,
		reg:     reg,
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
	memo      map[string]bool
	// implies is the §4.3 implication test, nil when pruning is disabled.
	implies func(*constraint.Set, constraint.C) bool
	cache   *ProofCache
	ns      string
	fp      *fingerprinter
	ct      *counters
	reg     *obs.Registry
}

// prove decides one candidate constraint set. The per-pair memo and the
// shared cache both answer without a prover invocation; the budget charges
// every logical (non-memo) query either way, so a warm cache changes the
// prover-call count but never the search trajectory — warm and cold runs
// discover byte-identical rule sets.
func (s *relaxer) prove(cs *constraint.Set) bool {
	// The fingerprint renames the pair's symbols one-to-one, so within the
	// pair it identifies the set: one key serves the memo and the cache.
	key := s.fp.key(cs)
	if v, ok := s.memo[key]; ok {
		return v
	}
	if s.calls >= s.budget {
		s.exhausted = true
		return false
	}
	if s.ctx.Err() != nil {
		s.exhausted = true
		return false
	}
	s.calls++
	ctx, sp := obs.ChildSpan(s.ctx, "prove")
	defer sp.End()
	fpKey := s.ns + key
	if v, ok := s.cache.Get(fpKey); ok {
		s.ct.cacheHits.Add(1)
		s.reg.Counter(metricCacheHits).Inc()
		journal.Default().Record(journal.KindCacheHit, -1, journal.CacheProof, 0)
		s.memo[key] = v
		sp.SetNote("cache-hit %v (%d constraints)", v, cs.Len())
		return v
	}
	s.ct.cacheMisses.Add(1)
	s.reg.Counter(metricCacheMisses).Inc()
	journal.Default().Record(journal.KindCacheMiss, -1, journal.CacheProof, 0)
	s.ct.proverCalls.Add(1)
	faultinject.Stall(faultinject.ProverStall)
	begin := time.Now()
	v := s.prover(ctx, s.src, s.dest, cs)
	dur := time.Since(begin)
	s.reg.Histogram(metricProverSeconds).Observe(dur)
	verdict := int64(0)
	if v {
		verdict = 1
	}
	journal.Default().Record(journal.KindProver, -1, verdict, int64(dur))
	sp.SetNote("%v (%d constraints)", v, cs.Len())
	if s.ctx.Err() != nil {
		// The proof was interrupted: the conservative "false" must not be
		// memoized anywhere a later, uncancelled run could see it.
		s.exhausted = true
		return false
	}
	s.cache.Put(fpKey, v)
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
		without := cur.Without(c)
		if s.implies != nil && s.implies(without, c) {
			// Implied member: removal is semantically free (§4.3 closure
			// pruning) — no verifier call needed.
			cur = without
			continue
		}
		if s.prove(without) {
			cur = without
		}
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

// filterRefAttrs keeps only RefAttrs candidates whose attribute pair occurs
// together in a join or IN-subquery of either template (plus symmetric
// orientations). Unrestricted RefAttrs enumeration is quartic in the symbol
// count and almost never useful elsewhere.
func filterRefAttrs(cs *constraint.Set, src, dest *template.Node) *constraint.Set {
	hinted := map[[2]template.Sym]bool{}
	addHint := func(a, b template.Sym) {
		hinted[[2]template.Sym{a, b}] = true
		hinted[[2]template.Sym{b, a}] = true
	}
	for _, t := range []*template.Node{src, dest} {
		t.Walk(func(n *template.Node) {
			switch n.Op {
			case template.OpIJoin, template.OpLJoin, template.OpRJoin:
				addHint(n.Attrs, n.Attrs2)
			case template.OpInSub:
				// Pair the IN attributes with any projection attrs on the
				// subquery side.
				n.Children[1].Walk(func(m *template.Node) {
					if m.Op == template.OpProj {
						addHint(n.Attrs, m.Attrs)
					}
					if m.Op == template.OpInput {
						addHint(n.Attrs, template.AttrsOf(m.Rel))
					}
				})
			}
		})
	}
	kept := make([]constraint.C, 0, cs.Len())
	for i := 0; i < cs.Len(); i++ {
		c := cs.At(i)
		if c.Kind == constraint.RefAttrs && !hinted[[2]template.Sym{c.Syms[1], c.Syms[3]}] {
			continue
		}
		kept = append(kept, c)
	}
	return constraint.NewSet(kept...)
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
