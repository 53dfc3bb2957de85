package rewrite

import (
	"math"
	"sort"
	"sync"
	"time"

	"wetune/internal/faultinject"
	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/plan"
)

// The search budgets of the paper's §8.4 flow — iteratively generate
// rewritten queries (including equal-size "enabler" steps like predicate
// pull-up and column switches), then pick the best final query by the cost
// estimator. Every search runs under them: served rewrites, the experiments,
// the differential oracle and rule reduction.
const (
	defaultMaxSteps    = 6
	defaultMaxFrontier = 12
	defaultMaxNodes    = defaultMaxFrontier * defaultMaxSteps * 4 // 288
)

// Options configures one rewrite search; the zero value is the default
// budgets.
type Options struct {
	// maxSteps bounds the rule-application chain length, maxFrontier the
	// pending states kept between expansions (the worst are dropped beyond
	// it) and maxNodes the states expanded; zero selects the default. Only
	// this package's tests, ExploreOptions and the SearchStarve fault set
	// them.
	maxSteps, maxFrontier, maxNodes int
	// Deadline, when non-zero, is a wall-clock budget checked before every
	// expansion and every rule attempt within one (each candidate is
	// checked against the whole plan, so one expansion of a large plan
	// takes long): a search past its deadline stops and returns the best plan
	// found so far with Truncated set and TruncatedBy = "deadline". This is
	// how a server's per-request deadline reaches into the search loop —
	// the request never blocks on an unbounded frontier, it degrades to the
	// best rewrite found in time.
	Deadline time.Time
	// SkipOrderByElim declares that the input plan has already been through
	// EliminateOrderBy and must be used as the start state directly. This is
	// the plan-cache path: elimination mutates ORDER-BY clauses inside
	// predicate subqueries, so a cached plan runs it exactly once — at cache
	// fill — and every subsequent search over the shared plan must not.
	// Because elimination is idempotent, results are byte-identical to a
	// fresh parse either way. It goes with PlanCache, once the benchmark's
	// per-layer probe no longer calls either.
	SkipOrderByElim bool
	// Provenance, when non-nil, is overwritten with the search's full
	// derivation record: every explored state, every candidate with its
	// fate, the chosen step chain with per-step costs, and the per-rule
	// why-not funnel. It only observes — the plan, applied chain and Stats
	// are identical to a search without it (ranking and budgets never look
	// at it).
	Provenance *Provenance
}

func (o Options) withDefaults() Options {
	if o.maxSteps <= 0 {
		o.maxSteps = defaultMaxSteps
	}
	if o.maxFrontier <= 0 {
		o.maxFrontier = defaultMaxFrontier
	}
	if o.maxNodes <= 0 {
		o.maxNodes = defaultMaxNodes
	}
	return o
}

// Stats reports one search's effort and outcome. Budget exhaustion is never
// silent: Truncated is set whenever any budget (steps, frontier, nodes) cut
// the search before the space was exhausted, and TruncatedBy names the first
// budget hit.
type Stats struct {
	// NodesExplored counts the plan states expanded (candidates generated).
	NodesExplored int `json:"nodes_explored"`
	// CandidatesSeen counts the candidate rewrites produced across all
	// expansions (before memo dedup).
	CandidatesSeen int `json:"candidates"`
	// MemoHits counts derived plans already in the fingerprint-keyed visited
	// memo — re-derivations that cost nothing instead of a re-expansion.
	MemoHits int `json:"memo_hits"`
	// RuleAttempts counts full matcher invocations (post index, post shape
	// precheck); RuleMatches counts the ones that bound and passed plan.Check.
	RuleAttempts int64 `json:"rule_attempts"`
	RuleMatches  int64 `json:"rule_matches"`
	// IndexPruned counts (rule, position) attempts skipped because the rule
	// index ruled the rule out by root operator kind; ShapePruned counts
	// attempts skipped by the deeper ops-only shape precheck.
	IndexPruned int64 `json:"index_pruned"`
	ShapePruned int64 `json:"shape_pruned"`
	// Initial/Final report the plan the search started from (after ORDER BY
	// elimination) and the plan it settled on.
	InitialSize int     `json:"initial_size"`
	FinalSize   int     `json:"final_size"`
	InitialCost float64 `json:"initial_cost"`
	FinalCost   float64 `json:"final_cost"`
	// Steps is the applied rule-chain length of the returned plan.
	Steps int `json:"steps"`
	// Truncated reports that a budget cut the search; TruncatedBy is the
	// first budget hit: "steps", "frontier" or "nodes".
	Truncated   bool   `json:"truncated"`
	TruncatedBy string `json:"truncated_by,omitempty"`
}

// state is one node of the search graph: a derived plan plus the rule chain
// that produced it.
type state struct {
	plan  plan.Node
	fp    string // plan fingerprint: the visited memo's key, made once (memoKey)
	path  []Applied
	size  int
	cost  float64
	depth int
	seq   int // insertion sequence: deterministic FIFO among rank ties
	id    int // provenance node ID (0 unless provenance is recording)
}

// rankLess orders frontier states: smaller plans first, then cheaper, then
// first-discovered (seq). The search pops the minimum.
func rankLess(a, b *state) bool {
	if a.size != b.size {
		return a.size < b.size
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.seq < b.seq
}

// rankedCand is one expand output with its rank, in the scratch buffer the
// candidate sort reuses across expansions.
type rankedCand struct {
	c    Candidate
	size int
	cost float64
}

// searchCtx is everything one Search or Candidates call works with, and the
// unit searchCtxPool recycles: the per-call handles (rewriter, index, stats,
// flight recorder, optional provenance record) and the scratch that outlives
// the call — matcher buffers, start state, visited memo, frontier backing
// array, candidate and rank buffers, the node-path arena and the byte arena
// candidates are fingerprinted into. Nothing lives on the shared Rewriter, so
// one Rewriter serves concurrent searches, and a steady-state search allocates
// only what escapes into its result (derived plans, applied chains) plus one
// memo key per visited state; a search that matches no rule allocates
// nothing.
type searchCtx struct {
	rw    *Rewriter
	idx   *RuleIndex
	m     Matcher
	stats Stats
	jr    *journal.Journal
	// deadline is Options.Deadline; late records that expand stopped at it.
	deadline time.Time
	late     bool
	prov     *Provenance
	// bucketRules caches, per plan kind, the rule numbers the index keeps for
	// that kind (provenance-only: attributes index pruning to specific rules).
	bucketRules map[plan.Kind]map[int]bool

	first    state
	seen     map[string]bool
	frontier []*state
	ranked   []rankedCand
	cands    []Candidate
	paths    [][]int
	pathBuf  []int  // current recursion prefix for appendPaths
	arena    []int  // backing storage for the per-expand path slices
	fpArena  []byte // backing storage for the per-expand candidate fingerprints
}

var searchCtxPool = sync.Pool{
	New: func() any {
		return &searchCtx{seen: make(map[string]bool, 64)}
	},
}

// newSearchCtx takes a context from the pool and binds it to one call.
func newSearchCtx(rw *Rewriter, prov *Provenance) *searchCtx {
	sc := searchCtxPool.Get().(*searchCtx)
	sc.rw, sc.idx, sc.jr, sc.prov = rw, rw.ruleIndex(), journal.Default(), prov
	sc.m.Schema = rw.Schema
	return sc
}

// release clears everything that references the call — plans, binding names,
// the rewriter, the provenance record — so a pooled context never retains a
// query's tree, keeps the grown buffers, and returns the context to the pool.
func (sc *searchCtx) release() {
	sc.rw, sc.idx, sc.jr, sc.prov, sc.bucketRules = nil, nil, nil, nil, nil
	sc.stats, sc.deadline, sc.late = Stats{}, time.Time{}, false
	sc.m.release()
	sc.first = state{}
	clear(sc.seen)
	clear(sc.frontier)
	sc.frontier = sc.frontier[:0]
	clear(sc.ranked)
	sc.ranked = sc.ranked[:0]
	clear(sc.cands)
	sc.cands = sc.cands[:0]
	sc.paths = sc.paths[:0]
	sc.pathBuf = sc.pathBuf[:0]
	sc.arena = sc.arena[:0]
	sc.fpArena = sc.fpArena[:0]
	searchCtxPool.Put(sc)
}

// inBucket returns the rule numbers the index retains for fragments of kind.
func (sc *searchCtx) inBucket(kind plan.Kind) map[int]bool {
	if m, ok := sc.bucketRules[kind]; ok {
		return m
	}
	m := map[int]bool{}
	kindGroups, anyGroups := sc.idx.groupsFor(kind)
	for _, groups := range [2][]*shapeGroup{kindGroups, anyGroups} {
		for _, g := range groups {
			for _, cr := range g.rules {
				m[cr.Rule.No] = true
			}
		}
	}
	if sc.bucketRules == nil {
		sc.bucketRules = map[plan.Kind]map[int]bool{}
	}
	sc.bucketRules[kind] = m
	return m
}

// nodePathsInto fills sc.paths with every root-to-node child-index path of p
// in pre-order. Path storage comes from the arena; the slices are only valid
// until the next expand, which is fine — everything that escapes
// (Candidate.Path, provenance) is copied.
func (sc *searchCtx) nodePathsInto(p plan.Node) [][]int {
	sc.paths = sc.paths[:0]
	sc.arena = sc.arena[:0]
	sc.appendPaths(p)
	return sc.paths
}

func (sc *searchCtx) appendPaths(n plan.Node) {
	n0 := len(sc.arena)
	sc.arena = append(sc.arena, sc.pathBuf...)
	sc.paths = append(sc.paths, sc.arena[n0:len(sc.arena):len(sc.arena)])
	for i, k := 0, plan.NumChildren(n); i < k; i++ {
		sc.pathBuf = append(sc.pathBuf, i)
		sc.appendPaths(plan.Child(n, i))
		sc.pathBuf = sc.pathBuf[:len(sc.pathBuf)-1]
	}
}

// expand generates every single-step rewrite of the plan of node st, in
// deterministic (position, rule) order, consulting the rule index at each
// position. Aggregate prune counts, matcher attempts and matches land in the
// flight recorder; per-rule attribution lands in the provenance record when
// one is attached. Each derived plan is fingerprinted once, into the byte
// arena: compared with the parent's fingerprint (memoKey) to drop no-ops here,
// and reused by the caller to probe the visited memo. The returned slice and
// the fingerprints are scratch — consumed before the next expand call.
func (sc *searchCtx) expand(st *state) []Candidate {
	p, fromID, depth := st.plan, st.id, st.depth
	out := sc.cands[:0]
	sc.fpArena = sc.fpArena[:0]
	var idxPruned, shapePruned int64
positions:
	for _, path := range sc.nodePathsInto(p) {
		frag := nodeAt(p, path)
		kind := frag.Kind()
		kindGroups, anyGroups := sc.idx.groupsFor(kind)
		idxPruned += int64(sc.idx.Total() - sc.idx.BucketSize(kind))
		if sc.prov != nil {
			sc.prov.noteIndexPruned(sc.inBucket(kind))
		}
		for _, groups := range [2][]*shapeGroup{kindGroups, anyGroups} {
			for _, g := range groups {
				if !shapeMatches(g.shape, frag) {
					shapePruned += int64(len(g.rules))
					if sc.prov != nil {
						for _, cr := range g.rules {
							sc.prov.rule(cr.Rule.No).ShapePruned++
						}
					}
					continue
				}
				for _, cr := range g.rules {
					if sc.pastDeadline() {
						sc.late = true
						break positions
					}
					sc.stats.RuleAttempts++
					sc.jr.Record(journal.KindRuleAttempt, int32(cr.Rule.No), journal.PackPath(path), 0)
					if sc.prov != nil {
						sc.prov.rule(cr.Rule.No).Attempts++
					}
					repl, ok := sc.m.ApplyCompiled(cr, frag)
					if !ok {
						if sc.prov != nil {
							sc.prov.rule(cr.Rule.No).MatchFailed++
						}
						continue
					}
					sc.stats.RuleMatches++
					sc.jr.Record(journal.KindRuleMatch, int32(cr.Rule.No), journal.PackPath(path), 0)
					np := replaceAt(p, path, repl)
					fp0 := len(sc.fpArena)
					sc.fpArena = plan.AppendFingerprint(sc.fpArena, np)
					fpNP := sc.fpArena[fp0:len(sc.fpArena):len(sc.fpArena)]
					if string(fpNP) == sc.memoKey(st) {
						// no-op application
						sc.fpArena = sc.fpArena[:fp0]
						if sc.prov != nil {
							sc.prov.rule(cr.Rule.No).NoOps++
							sc.prov.Candidates = append(sc.prov.Candidates, ProvCandidate{
								FromNode: fromID, RuleNo: cr.Rule.No, RuleName: cr.Rule.Name,
								Path: append([]int{}, path...), Fate: CandNoOp, Node: -1,
							})
						}
						continue
					}
					// The fragment passed plan.Check in isolation, but a rewrite
					// that renames the fragment's output columns can break
					// references in ENCLOSING operators — check it whole.
					var err error
					if sc.m.cols, err = plan.Check(sc.m.cols, np, sc.m.Schema); err != nil {
						sc.fpArena = sc.fpArena[:fp0]
						if sc.prov != nil {
							sc.prov.rule(cr.Rule.No).Invalid++
							sc.prov.Candidates = append(sc.prov.Candidates, ProvCandidate{
								FromNode: fromID, RuleNo: cr.Rule.No, RuleName: cr.Rule.Name,
								Path: append([]int{}, path...), Fate: CandInvalid, Node: -1,
							})
						}
						continue
					}
					out = append(out, Candidate{
						Plan: np,
						Rule: cr.Rule,
						Path: append([]int{}, path...),
						fp:   fpNP,
					})
				}
			}
		}
	}
	sc.cands = out
	sc.stats.IndexPruned += idxPruned
	sc.stats.ShapePruned += shapePruned
	sc.stats.CandidatesSeen += len(out)
	if idxPruned > 0 {
		sc.jr.Record(journal.KindRulePruned, -1, journal.PruneIndex, idxPruned)
	}
	if shapePruned > 0 {
		sc.jr.Record(journal.KindRulePruned, -1, journal.PruneShape, shapePruned)
	}
	sc.jr.Record(journal.KindExpand, -1, int64(len(out)), int64(depth))
	return out
}

// memoKey returns st's fingerprint. Only the start state is created without
// one: its key is made, and entered in the visited memo, when its first
// candidate needs comparing against it, so a search whose start state matches
// no rule neither fingerprints it nor touches the memo. No memo probe can come
// earlier — the start state's own candidates are compared with its key, not
// probed.
func (sc *searchCtx) memoKey(st *state) string {
	if st.fp == "" {
		st.fp = plan.Fingerprint(st.plan)
		sc.seen[st.fp] = true
	}
	return st.fp
}

// pastDeadline reports whether the search has a deadline and it has passed.
func (sc *searchCtx) pastDeadline() bool {
	return !sc.deadline.IsZero() && !time.Now().Before(sc.deadline)
}

// pathLess compares candidate positions lexicographically.
func pathLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// truncCode maps Stats.TruncatedBy to the flight-recorder budget code.
func truncCode(by string) int64 {
	switch by {
	case "steps":
		return journal.TruncSteps
	case "frontier":
		return journal.TruncFrontier
	case "deadline":
		return journal.TruncDeadline
	}
	return journal.TruncNodes
}

// Search runs the cost-guided rewrite search (§6 matching driven by the §8.4
// explore-then-pick-cheapest loop): a best-first frontier over derived plans
// ranked by (operator count, estimated cost), a fingerprint-keyed visited
// memo so no derived plan is expanded twice, and explicit step/frontier/node
// budgets. Equal-rank candidates are ordered by (rule number, position),
// making the result deterministic and independent of the rule-set ordering.
// ORDER BY elimination (§7) runs first unless opts.SkipOrderByElim. The
// returned Stats also land in the default metrics registry, and the aggregate
// event trail (expansions, prunes, attempts, matches, candidates, memo hits,
// truncation) in the default flight recorder.
func (rw *Rewriter) Search(p plan.Node, opts Options) (plan.Node, []Applied, Stats) {
	opts = opts.withDefaults()
	if faultinject.Fire(faultinject.SearchStarve) {
		// Injected budget starvation: the search expands only the start
		// state and truncates by "nodes", degrading to the best candidate of
		// one expansion — the overload path a chaos run wants to prove safe.
		opts.maxNodes = 1
	}
	prov := opts.Provenance
	sc := newSearchCtx(rw, prov)
	defer sc.release()
	sc.deadline = opts.Deadline
	if prov != nil {
		prov.reset(sc.idx)
	}

	start := p
	if !opts.SkipOrderByElim {
		start = EliminateOrderBy(p)
	}
	first := &sc.first
	*first = state{plan: start, size: plan.Size(start)}
	first.cost = rw.cost(start, first.size)
	sc.stats.InitialSize = first.size
	sc.stats.InitialCost = first.cost
	if prov != nil {
		prov.InitialSize = first.size
		prov.InitialCost = first.cost
		prov.Nodes = append(prov.Nodes, ProvNode{
			ID: 0, Parent: -1, RuleNo: -1, Depth: 0,
			Size: first.size, Cost: first.cost, Fate: FatePending,
		})
	}

	seen := sc.seen
	// The frontier lives in the pooled backing array; head indexes the next
	// state to pop (popping must not re-slice away the array's start, or the
	// pool would shrink every search).
	frontier := append(sc.frontier, first)
	head := 0
	best := first
	seq := 1

	truncate := func(by string) {
		if !sc.stats.Truncated {
			sc.stats.Truncated = true
			sc.stats.TruncatedBy = by
			sc.jr.Record(journal.KindTruncated, -1, truncCode(by), 0)
		}
	}

	for head < len(frontier) {
		if sc.pastDeadline() {
			truncate("deadline")
			break
		}
		if sc.stats.NodesExplored >= opts.maxNodes {
			truncate("nodes")
			break
		}
		st := frontier[head]
		frontier[head] = nil
		head++
		if st.depth >= opts.maxSteps {
			// Conservative: the state might have had no candidates, but the
			// step budget stopped us from finding out.
			truncate("steps")
			if prov != nil {
				prov.Nodes[st.id].Fate = FateStepsBudget
			}
			continue
		}
		sc.stats.NodesExplored++
		if prov != nil {
			prov.Nodes[st.id].Fate = FateExpanded
		}

		cands := sc.expand(st)
		if sc.late {
			// The expansion stopped part way: the search ends with the best
			// plan enqueued before it.
			truncate("deadline")
			break
		}
		// Deterministic tie-break: candidates of equal (size, cost) enter the
		// frontier — and thus become the incumbent best — in (rule number,
		// position) order, regardless of rule-set ordering.
		rs := sc.ranked[:0]
		for _, c := range cands {
			size := plan.Size(c.Plan)
			rs = append(rs, rankedCand{c: c, size: size, cost: rw.cost(c.Plan, size)})
		}
		sc.ranked = rs
		if len(rs) > 1 { // most expansions: nothing to order, and no closure to allocate
			sort.SliceStable(rs, func(i, j int) bool {
				a, b := rs[i], rs[j]
				if a.size != b.size {
					return a.size < b.size
				}
				if a.cost != b.cost {
					return a.cost < b.cost
				}
				if a.c.Rule.No != b.c.Rule.No {
					return a.c.Rule.No < b.c.Rule.No
				}
				return pathLess(a.c.Path, b.c.Path)
			})
		}
		for _, r := range rs {
			// Probing with string(bytes) does not allocate; the key string is
			// made only when the state is new.
			if seen[string(r.c.fp)] {
				sc.stats.MemoHits++
				sc.jr.Record(journal.KindMemoHit, int32(r.c.Rule.No), journal.PackPath(r.c.Path), 0)
				if prov != nil {
					prov.rule(r.c.Rule.No).MemoDups++
					prov.Candidates = append(prov.Candidates, ProvCandidate{
						FromNode: st.id, RuleNo: r.c.Rule.No, RuleName: r.c.Rule.Name,
						Path: r.c.Path, Size: r.size, Cost: r.cost,
						Fate: CandMemoHit, Node: -1,
					})
				}
				continue
			}
			fp := string(r.c.fp)
			seen[fp] = true
			ns := &state{
				plan: r.c.Plan,
				fp:   fp,
				path: append(append([]Applied{}, st.path...),
					Applied{RuleNo: r.c.Rule.No, RuleName: r.c.Rule.Name}),
				size:  r.size,
				cost:  r.cost,
				depth: st.depth + 1,
				seq:   seq,
			}
			seq++
			sc.jr.Record(journal.KindCandidate, int32(r.c.Rule.No),
				int64(r.size), int64(math.Float64bits(r.cost)))
			if prov != nil {
				ns.id = len(prov.Nodes)
				prov.Nodes = append(prov.Nodes, ProvNode{
					ID: ns.id, Parent: st.id,
					RuleNo: r.c.Rule.No, RuleName: r.c.Rule.Name, Path: r.c.Path,
					Depth: ns.depth, Size: ns.size, Cost: ns.cost, Fate: FatePending,
				})
				prov.rule(r.c.Rule.No).Enqueued++
				prov.Candidates = append(prov.Candidates, ProvCandidate{
					FromNode: st.id, RuleNo: r.c.Rule.No, RuleName: r.c.Rule.Name,
					Path: r.c.Path, Size: r.size, Cost: r.cost,
					Fate: CandEnqueued, Node: ns.id,
				})
			}
			if ns.size < best.size || (ns.size == best.size && ns.cost < best.cost) {
				best = ns
			}
			// Sorted insert into the live segment keeps the frontier pop-min
			// and deterministic.
			i := head + sort.Search(len(frontier)-head, func(i int) bool {
				return rankLess(ns, frontier[head+i])
			})
			frontier = append(frontier, nil)
			copy(frontier[i+1:], frontier[i:])
			frontier[i] = ns
		}
		if len(frontier)-head > opts.maxFrontier {
			if prov != nil {
				for _, dropped := range frontier[head+opts.maxFrontier:] {
					prov.Nodes[dropped.id].Fate = FateDropped
				}
			}
			clear(frontier[head+opts.maxFrontier:])
			frontier = frontier[:head+opts.maxFrontier]
			truncate("frontier")
		}
	}
	sc.frontier = frontier

	sc.stats.FinalSize = best.size
	sc.stats.FinalCost = best.cost
	sc.stats.Steps = len(best.path)
	if prov != nil {
		prov.FinalSize = best.size
		prov.FinalCost = best.cost
		prov.finish(best.id)
	}
	sc.flushObs()
	return best.plan, best.path, sc.stats
}

// The search counters of the default metrics registry, resolved once: a
// registry lookup takes the registry's read lock, which concurrent searches
// would otherwise share on every call.
var (
	ruleAttemptsC = obs.Default().Counter("rewrite_rule_attempts")
	ruleMatchesC  = obs.Default().Counter("rewrite_rule_matches")
	indexPrunedC  = obs.Default().Counter("rewrite_index_pruned")
	shapePrunedC  = obs.Default().Counter("rewrite_shape_pruned")
	searchNodesC  = obs.Default().Counter("rewrite_search_nodes")
	memoHitsC     = obs.Default().Counter("rewrite_memo_hits")
	rulesAppliedC = obs.Default().Counter("rewrite_rules_applied")
	truncatedC    = obs.Default().Counter("rewrite_truncated")
)

// flushObs threads the search stats into the default metrics registry.
func (sc *searchCtx) flushObs() {
	addCount(ruleAttemptsC, sc.stats.RuleAttempts)
	addCount(ruleMatchesC, sc.stats.RuleMatches)
	addCount(indexPrunedC, sc.stats.IndexPruned)
	addCount(shapePrunedC, sc.stats.ShapePruned)
	addCount(searchNodesC, int64(sc.stats.NodesExplored))
	addCount(memoHitsC, int64(sc.stats.MemoHits))
	addCount(rulesAppliedC, int64(sc.stats.Steps))
	if sc.stats.Truncated {
		truncatedC.Inc()
	}
}

// addCount adds a non-zero n to c. Most searches attempt no rule, and an
// atomic add to a counter every concurrent search shares is not free even
// when it adds nothing.
func addCount(c *obs.Counter, n int64) {
	if n != 0 {
		c.Add(n)
	}
}
