package rewrite

import (
	"slices"
	"sync"
	"time"

	"wetune/internal/faultinject"
	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/plan"
)

// defaultMaxSteps bounds the descent of the paper's §8.4 flow — apply rules
// one step at a time, including equal-size "enabler" steps like predicate
// pull-up and column switches, and keep the smallest plan seen. Every search
// runs under it: served rewrites, the experiments, the differential oracle and
// rule reduction.
const defaultMaxSteps = 6

// Options configures one rewrite search; the zero value is the default
// budget.
type Options struct {
	// maxSteps bounds the rule-application chain; zero selects the default.
	// Only this package's tests, ExploreOptions and the SearchStarve fault set
	// it.
	maxSteps int
	// Deadline, when non-zero, is a wall-clock budget checked before every
	// step and every rule attempt within one (each candidate is checked
	// against the whole plan, so one expansion of a large plan takes long): a
	// search past its deadline stops and returns the smallest plan found so
	// far with Truncated set and TruncatedBy = "deadline". This is how a
	// server's per-request deadline reaches into the search loop.
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
	// Provenance, when non-nil, is overwritten with the search's derivation
	// record: the chain of steps, every candidate of each step the descent
	// did not take with its fate, and the per-rule why-not funnel. It only
	// observes — the plan, applied chain and Stats are identical to a search
	// without it.
	Provenance *Provenance
}

func (o Options) withDefaults() Options {
	if o.maxSteps <= 0 {
		o.maxSteps = defaultMaxSteps
	}
	return o
}

// Stats reports one search's effort and outcome. Budget exhaustion is never
// silent: Truncated is set whenever the step budget or the deadline cut the
// search, and TruncatedBy names which.
type Stats struct {
	// NodesExplored counts the plan states expanded (candidates generated):
	// the steps of the descent, plus the expansion that ended it.
	NodesExplored int `json:"nodes_explored"`
	// CandidatesSeen counts the candidate rewrites produced across all
	// expansions (before memo dedup).
	CandidatesSeen int `json:"candidates"`
	// MemoHits counts derived plans already in the fingerprint-keyed visited
	// memo: candidates the descent will not step to again.
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
	// elimination) and the plan it settled on. No estimated cost ranks
	// plans; the cost fields carry the sizes as floats for the callers that
	// report a cost.
	InitialSize int     `json:"initial_size"`
	FinalSize   int     `json:"final_size"`
	InitialCost float64 `json:"initial_cost"`
	FinalCost   float64 `json:"final_cost"`
	// Steps is the applied rule-chain length of the returned plan.
	Steps int `json:"steps"`
	// Truncated reports that a budget cut the search; TruncatedBy is the
	// budget: "steps" or "deadline".
	Truncated   bool   `json:"truncated"`
	TruncatedBy string `json:"truncated_by,omitempty"`
}

// state is the descent's current plan: the plan, its fingerprint, its size
// and how many steps led to it.
type state struct {
	plan  plan.Node
	fp    string // plan fingerprint: the visited memo's key, made once (memoKey)
	size  int
	depth int
}

// rankedCand is one expand output with its size, in the scratch buffer the
// candidate ranking reuses across expansions.
type rankedCand struct {
	c    Candidate
	size int
}

// rankCands orders candidates by size, then by the depth of their position,
// deepest first, then by rule number and position; the descent steps to the
// first one it has not visited. Deepest first rewrites an inner fragment
// before a size-neutral step reshapes the operators above it: on Table 1's
// q3, ranking by rule number first steps to a join commutation at the root
// (rule 22) instead of the filter pull-up below it (rule 27), and the chain of
// Figure 8 never reaches its join elimination.
func rankCands(a, b rankedCand) int {
	if a.size != b.size {
		return a.size - b.size
	}
	if len(a.c.Path) != len(b.c.Path) {
		return len(b.c.Path) - len(a.c.Path)
	}
	if a.c.Rule.No != b.c.Rule.No {
		return a.c.Rule.No - b.c.Rule.No
	}
	if pathLess(a.c.Path, b.c.Path) {
		return -1
	}
	if pathLess(b.c.Path, a.c.Path) {
		return 1
	}
	return 0
}

// searchCtx is everything one Search or Candidates call works with, and the
// unit searchCtxPool recycles: the per-call handles (rewriter, index, stats,
// flight recorder, optional provenance record) and the scratch that outlives
// the call — matcher buffers, current state, visited memo, candidate and
// rank buffers, the node-path arena and the byte arena
// candidates are fingerprinted into. Nothing lives on the shared Rewriter, so
// one Rewriter serves concurrent searches, and a steady-state search allocates
// only what escapes into its result (derived plans, the applied chain) plus
// one memo key per new candidate; a search that matches no rule allocates
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

	cur     state
	seen    map[string]bool
	ranked  []rankedCand
	cands   []Candidate
	paths   [][]int
	pathBuf []int  // current recursion prefix for appendPaths
	arena   []int  // backing storage for the per-expand path slices
	fpArena []byte // backing storage for the per-expand candidate fingerprints
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
	sc.cur = state{}
	clear(sc.seen)
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

// expand generates every single-step rewrite of the plan of state st, in
// deterministic (position, rule) order, consulting the rule index at each
// position. Aggregate prune counts, matcher attempts and matches land in the
// flight recorder; per-rule attribution lands in the provenance record when
// one is attached. Each derived plan is fingerprinted once, into the byte
// arena: compared with the parent's fingerprint (memoKey) to drop no-ops here,
// and reused by the caller to probe the visited memo. The returned slice and
// the fingerprints are scratch — consumed before the next expand call.
func (sc *searchCtx) expand(st *state) []Candidate {
	p, depth := st.plan, st.depth
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
								Step: depth, RuleNo: cr.Rule.No, RuleName: cr.Rule.Name,
								Path: append([]int{}, path...), Fate: CandNoOp,
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
								Step: depth, RuleNo: cr.Rule.No, RuleName: cr.Rule.Name,
								Path: append([]int{}, path...), Fate: CandInvalid,
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

// truncate records the budget that cut the search; the first one counts.
func (sc *searchCtx) truncate(by string) {
	if sc.stats.Truncated {
		return
	}
	sc.stats.Truncated = true
	sc.stats.TruncatedBy = by
	code := journal.TruncSteps
	if by == "deadline" {
		code = journal.TruncDeadline
	}
	sc.jr.Record(journal.KindTruncated, -1, code, 0)
}

// Search runs the rewrite search (§6 matching driven by the §8.4
// apply-and-keep-the-best loop) as a greedy descent: expand the current plan,
// rank its candidates (rankCands: operator count first), step to the
// best-ranked one not in the fingerprint-keyed visited memo, and stop after
// the step budget or when no unvisited candidate is left. Every candidate
// enters the memo, not only the one stepped to, so a size-neutral step never
// leads back to a plan seen before. The smallest plan seen is returned, the
// earliest among equals. The ranking makes the result deterministic and
// independent of the rule-set ordering, and the estimated cost plays no part
// in it: a wider best-first search that breaks size ties by the engine's cost
// estimate returns the same plans (the test-only reference in
// reference_test.go). ORDER BY elimination (§7) runs first unless
// opts.SkipOrderByElim. The returned Stats also land in the default metrics
// registry, and the aggregate event trail (expansions, prunes, attempts,
// matches, candidates, memo hits, truncation) in the default flight recorder.
func (rw *Rewriter) Search(p plan.Node, opts Options) (plan.Node, []Applied, Stats) {
	opts = opts.withDefaults()
	if faultinject.Fire(faultinject.SearchStarve) {
		// Injected budget starvation: the search takes at most one step and
		// truncates by "steps" — the overload path a chaos run wants to
		// prove safe.
		opts.maxSteps = 1
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
	cur := &sc.cur
	*cur = state{plan: start, size: plan.Size(start)}
	sc.stats.InitialSize = cur.size
	best, bestSize, kept := start, cur.size, 0
	var chain []Applied
	for {
		if sc.pastDeadline() {
			sc.truncate("deadline")
			break
		}
		if cur.depth >= opts.maxSteps {
			// Conservative: the state might have had no candidates, but the
			// step budget stopped us from finding out.
			sc.truncate("steps")
			break
		}
		sc.stats.NodesExplored++
		cands := sc.expand(cur)
		if sc.late {
			// The expansion stopped part way: the search ends with the
			// smallest plan stepped to before it.
			sc.truncate("deadline")
			break
		}
		next, key := sc.choose(cands, cur.depth)
		if next == nil {
			break
		}
		chain = append(chain, Applied{RuleNo: next.c.Rule.No, RuleName: next.c.Rule.Name})
		if prov != nil {
			prov.Steps = append(prov.Steps, ProvStep{
				RuleNo: next.c.Rule.No, RuleName: next.c.Rule.Name, Path: next.c.Path,
				SizeBefore: cur.size, SizeAfter: next.size,
			})
			prov.rule(next.c.Rule.No).Chosen++
		}
		*cur = state{plan: next.c.Plan, fp: key, size: next.size, depth: cur.depth + 1}
		if cur.size < bestSize {
			best, bestSize, kept = cur.plan, cur.size, cur.depth
		}
	}

	sc.stats.FinalSize = bestSize
	sc.stats.InitialCost = float64(sc.stats.InitialSize)
	sc.stats.FinalCost = float64(bestSize)
	sc.stats.Steps = kept
	if prov != nil {
		prov.InitialSize = sc.stats.InitialSize
		prov.FinalSize = bestSize
		prov.finish(kept)
	}
	sc.flushObs()
	var applied []Applied
	if kept > 0 {
		applied = chain[:kept:kept]
	}
	return best, applied, sc.stats
}

// choose ranks the candidates of the state at depth and returns the
// best-ranked one the search has not visited, with its memo key, entering
// every unvisited candidate in the memo. It returns nil when every candidate
// was visited before.
func (sc *searchCtx) choose(cands []Candidate, depth int) (*rankedCand, string) {
	rs := sc.ranked[:0]
	for _, c := range cands {
		rs = append(rs, rankedCand{c: c, size: plan.Size(c.Plan)})
	}
	sc.ranked = rs
	if len(rs) > 1 {
		slices.SortFunc(rs, rankCands)
	}
	var next *rankedCand
	var key string
	for i := range rs {
		r := &rs[i]
		fate := CandNotChosen
		// Probing with string(bytes) does not allocate; the key string is
		// made only when the plan is new.
		if sc.seen[string(r.c.fp)] {
			sc.stats.MemoHits++
			sc.jr.Record(journal.KindMemoHit, int32(r.c.Rule.No), journal.PackPath(r.c.Path), 0)
			fate = CandMemoHit
		} else {
			fp := string(r.c.fp)
			sc.seen[fp] = true
			sc.jr.Record(journal.KindCandidate, int32(r.c.Rule.No), int64(r.size), journal.PackPath(r.c.Path))
			if next == nil {
				next, key = r, fp
				continue
			}
		}
		if sc.prov != nil {
			sc.prov.candidate(depth, r.c, r.size, fate)
		}
	}
	return next, key
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
