package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"wetune"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/sql"
)

// rewriteEnv is what set-up builds for the three query workloads: the seeded
// corpus (plannable queries only), one cache-less library Optimizer per
// schema, and the library's answer to every corpus query. The answers are the
// reference every timed output is compared with, after the oracle has
// approved them.
type rewriteEnv struct {
	schemas  map[string]*wetune.Schema
	opts     map[string]*wetune.Optimizer
	corpus   []query                 // in slot-plan order: the same shapes under every seed
	order    []int                   // the seeded order operations cycle through corpus in
	optOf    []*wetune.Optimizer     // optOf[i] serves corpus[i]
	expect   []*wetune.RewriteResult // expect[i] answers corpus[i]
	excluded int                     // corpus queries the dialect cannot plan
	fired    int                     // distinct library rules that fired on the corpus
}

// setupRewrite generates the corpus, builds the optimizers, drops queries the
// dialect cannot plan (they would be expected 4xx, not operations) and runs
// every remaining query once. That pass produces the reference answers and
// also finishes lazy initialisation before anything is timed.
func setupRewrite(seed int64, size corpusSize) (*rewriteEnv, error) {
	schemas, items, err := buildCorpus(seed, size)
	if err != nil {
		return nil, err
	}
	env := &rewriteEnv{schemas: schemas, opts: make(map[string]*wetune.Optimizer, len(schemas))}
	rules := wetune.BuiltinRules()
	for app, schema := range schemas {
		env.opts[app] = wetune.NewOptimizer(rules, schema)
	}
	fired := map[int]bool{}
	ctx := context.Background()
	for _, q := range items {
		opt := env.opts[q.App]
		if _, err := opt.PlanSQL(q.SQL); err != nil {
			env.excluded++
			continue
		}
		res, err := opt.OptimizeSQLResultContext(ctx, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("setup: %s plans but does not rewrite: %q: %w", q.App, q.SQL, err)
		}
		for _, a := range res.Applied {
			fired[a.RuleNo] = true
		}
		env.corpus = append(env.corpus, q)
		env.optOf = append(env.optOf, opt)
		env.expect = append(env.expect, res)
	}
	env.fired = len(fired)
	if len(env.corpus) == 0 {
		return nil, fmt.Errorf("setup: no corpus query plans")
	}
	env.order = rngFor(seed, streamOrder).Perm(len(env.corpus))
	return env, nil
}

// outputSHA256 hashes the reference outputs in corpus order.
func (env *rewriteEnv) outputSHA256() string {
	h := sha256.New()
	for _, r := range env.expect {
		fmt.Fprintln(h, r.Output)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyRewrites runs the oracle over every distinct rewritten query among
// the given corpus indexes and returns how many it executed.
func verifyRewrites(env *rewriteEnv, orc *oracle, indexes []int, fails *failureLog) int {
	seen := map[query]bool{}
	checked := 0
	for _, i := range indexes {
		q, res := env.corpus[i], env.expect[i]
		key := query{App: q.App, SQL: q.SQL}
		if len(res.Applied) == 0 || seen[key] {
			continue
		}
		seen[key] = true
		checked++
		if err := orc.check(q.App, q.SQL, res.Output); err != nil {
			fails.add("oracle: %s: %q -> %q: %v", q.App, q.SQL, res.Output, err)
		}
	}
	return checked
}

func allIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// phase is one measured closed loop: the latency summary, what the process
// consumed, and the cost sums behind cost_ratio.
type phase struct {
	loopSummary
	Use        usage
	CostBefore float64
	CostAfter  float64
}

// runRewriteCold is the rewrite_cold closed loop: one goroutine, no caches,
// one OptimizeSQLResultContext per operation, cycling through the corpus in
// the seeded order for the given time. Every output is compared with the reference answer.
func runRewriteCold(env *rewriteEnv, d time.Duration, fails *failureLog) phase {
	ctx := context.Background()
	ln := newLanes(1, d, 250_000)[0]
	var costBefore, costAfter float64
	runtime.GC()
	mark := markUsage()
	start := time.Now()
	for k := 0; ; k++ {
		if k == len(env.order) {
			k = 0
		}
		i := env.order[k]
		q := &env.corpus[i]
		t0 := time.Now()
		res, err := env.optOf[i].OptimizeSQLResultContext(ctx, q.SQL)
		t1 := time.Now()
		elapsed := t1.Sub(start)
		ln.add(t1.Sub(t0), elapsed)
		switch {
		case err != nil:
			fails.add("rewrite: %s: %q: %v", q.App, q.SQL, err)
		case res.Output != env.expect[i].Output:
			fails.add("rewrite: %s: %q: output %q differs from reference %q", q.App, q.SQL, res.Output, env.expect[i].Output)
		default:
			costBefore += res.CostBefore
			costAfter += res.CostAfter
		}
		if elapsed >= d {
			break
		}
	}
	use := mark.since()
	return phase{loopSummary: summarizeLanes([]*lane{ln}, use), Use: use, CostBefore: costBefore, CostAfter: costAfter}
}

// stager replays a query through the rewrite path one public function at a
// time, so each layer can be timed from outside. It owns its own Rewriters
// and cache instances; nothing is shared with the optimizers under test.
type stager struct {
	schemas map[string]*wetune.Schema
	rws     map[string]*rewrite.Rewriter
	results *rewrite.ResultCache
	plans   *rewrite.PlanCache
	opts    rewrite.Options
}

func newStager(schemas map[string]*wetune.Schema) *stager {
	st := &stager{
		schemas: schemas,
		rws:     make(map[string]*rewrite.Rewriter, len(schemas)),
		results: rewrite.NewResultCache(servingCacheSize),
		plans:   rewrite.NewPlanCache(servingCacheSize),
		opts:    rewrite.ExploreOptions(12, 6), // what OptimizeSQLResultContext searches with
	}
	st.opts.SkipOrderByElim = true
	rules := wetune.BuiltinRules()
	for app, schema := range schemas {
		st.rws[app] = rewrite.NewRewriter(rules, schema)
	}
	return st
}

// servingCacheSize is the server's default capacity per cache tier and app.
const servingCacheSize = 2048

// stageCounts accumulates the counts taken at the stage boundaries.
type stageCounts struct {
	ops, rewritten, truncated           int64
	planNodes, nodesExplored, memoHits  int64
	attempts, matches, indexPr, shapePr int64
}

// replay runs one query through parse → build → ORDER-BY elimination →
// search → print as child spans of root, and probes NormalizeQuery (which the
// cache-less call never runs), Fingerprint, Candidates and both cache tiers
// on the same plan as spans of their own. It returns the printed SQL.
func (st *stager) replay(t *tracer, root int64, q query, c *stageCounts) (string, error) {
	var (
		key     string
		stmt    *sql.SelectStmt
		built   plan.Node
		start   plan.Node
		out     plan.Node
		applied []rewrite.Applied
		stats   rewrite.Stats
		printed string
		err     error
	)
	rw := st.rws[q.App]
	t.timed("sql.normalize", 0, func() { key = sql.NormalizeQuery(q.SQL) })
	t.timed("sql.parse", root, func() { stmt, err = sql.Parse(q.SQL) })
	if err != nil {
		return "", err
	}
	t.timed("plan.build", root, func() { built, err = plan.Build(stmt, st.schemas[q.App]) })
	if err != nil {
		return "", err
	}
	t.timed("rewrite.orderby_elim", root, func() { start = rewrite.EliminateOrderBy(built) })
	t.timed("rewrite.search", root, func() { out, applied, stats = rw.Search(start, st.opts) })
	t.timed("plan.tosql", root, func() { printed = plan.ToSQLString(out) })

	t.timed("plan.fingerprint", 0, func() { _ = plan.Fingerprint(start) })
	t.timed("rewrite.candidates", 0, func() { _ = rw.Candidates(start) })
	cached := rewrite.CachedResult{SQL: printed, Applied: applied, Stats: stats, CostBefore: stats.InitialCost, CostAfter: stats.FinalCost}
	t.timed("rewrite.result_cache_put", 0, func() { st.results.Put(key, cached) })
	t.timed("rewrite.result_cache_get", 0, func() { _, _ = st.results.Get(key) })
	t.timed("rewrite.plan_cache_put", 0, func() { st.plans.Put(key, start) })
	t.timed("rewrite.plan_cache_get", 0, func() { _, _ = st.plans.Get(key) })

	c.ops++
	if len(applied) > 0 {
		c.rewritten++
	}
	if stats.Truncated {
		c.truncated++
	}
	c.planNodes += int64(plan.Size(start))
	c.nodesExplored += int64(stats.NodesExplored)
	c.memoHits += int64(stats.MemoHits)
	c.attempts += stats.RuleAttempts
	c.matches += stats.RuleMatches
	c.indexPr += stats.IndexPruned
	c.shapePr += stats.ShapePruned
	return printed, nil
}

// stagedPass times the real library call for each query as a root span
// "wetune.optimize" and replays the query stage by stage beneath it, cycling
// through queries until at least minDur has passed and every query ran once.
// The replay of a query runs one operation late, after the next query's real
// call: replayed straight after its own real call it would find that query's
// data warm in the CPU caches and undercut the call it is meant to add up to.
// A replay whose output differs from the real call's is a benchmark bug.
func stagedPass(env *rewriteEnv, st *stager, t *tracer, queries []query, minDur time.Duration) (*stageCounts, error) {
	ctx := context.Background()
	c := &stageCounts{}
	type realCall struct {
		q          query
		start, end time.Time
		output     string
	}
	replay := func(rc realCall) error {
		t.begin()
		root := t.add("wetune.optimize", 0, rc.start, rc.end)
		printed, err := st.replay(t, root, rc.q, c)
		if err != nil {
			return fmt.Errorf("traced: replay of %s: %q: %w", rc.q.App, rc.q.SQL, err)
		}
		if printed != rc.output {
			return fmt.Errorf("traced: staged replay of %q printed %q, the real call %q", rc.q.SQL, printed, rc.output)
		}
		t.finish()
		return nil
	}
	var pending *realCall
	begin := time.Now()
	for i := 0; i < len(queries) || time.Since(begin) < minDur; i++ {
		q := queries[i%len(queries)]
		start := time.Now()
		res, err := env.opts[q.App].OptimizeSQLResultContext(ctx, q.SQL)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("traced: %s: %q: %w", q.App, q.SQL, err)
		}
		if pending != nil {
			if err := replay(*pending); err != nil {
				return nil, err
			}
		}
		pending = &realCall{q: q, start: start, end: end, output: res.Output}
	}
	if pending != nil {
		if err := replay(*pending); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// stageAllocs measures mean heap allocations per call of four stages by
// running each stage over all queries between two MemStats reads. It must run
// while nothing else in the process is busy.
func (st *stager) stageAllocs(queries []query) (parse, build, search, fingerprint float64, err error) {
	n := float64(len(queries))
	mallocs := func(fn func()) float64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs-a.Mallocs) / n
	}
	stmts := make([]*sql.SelectStmt, len(queries))
	plans := make([]plan.Node, len(queries))
	parse = mallocs(func() {
		for i, q := range queries {
			if stmts[i], err = sql.Parse(q.SQL); err != nil {
				return
			}
		}
	})
	if err != nil {
		return
	}
	build = mallocs(func() {
		for i, q := range queries {
			if plans[i], err = plan.Build(stmts[i], st.schemas[q.App]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return
	}
	for i := range plans {
		plans[i] = rewrite.EliminateOrderBy(plans[i])
	}
	search = mallocs(func() {
		for i, q := range queries {
			st.rws[q.App].Search(plans[i], st.opts)
		}
	})
	fingerprint = mallocs(func() {
		for i := range plans {
			_ = plan.Fingerprint(plans[i])
		}
	})
	return
}

// rewriteLayerMetrics writes the sql/plan/rewrite/wetune layer metrics of a
// staged pass into m.
func rewriteLayerMetrics(m metrics, t *tracer, c *stageCounts) {
	m.set("sql.normalize_ns", t.medianDur("sql.normalize"))
	m.set("sql.parse_ns", t.medianDur("sql.parse"))
	m.set("plan.build_ns", t.medianDur("plan.build"))
	m.set("plan.tosql_ns", t.medianDur("plan.tosql"))
	m.set("plan.fingerprint_ns", t.medianDur("plan.fingerprint"))
	m.set("rewrite.orderby_elim_ns", t.medianDur("rewrite.orderby_elim"))
	m.set("rewrite.search_ns", t.medianDur("rewrite.search"))
	m.set("rewrite.candidates_ns", t.medianDur("rewrite.candidates"))
	m.set("rewrite.result_cache_get_ns", t.medianDur("rewrite.result_cache_get"))
	m.set("rewrite.result_cache_put_ns", t.medianDur("rewrite.result_cache_put"))
	m.set("wetune.optimize_ns", t.medianDur("wetune.optimize"))
	m.set("wetune.glue_ns", t.medianSelf("wetune.optimize"))
	ops := float64(c.ops)
	m.set("plan.nodes", ratio(float64(c.planNodes), ops))
	m.set("rewrite.nodes_explored", ratio(float64(c.nodesExplored), ops))
	m.set("rewrite.rule_attempts", ratio(float64(c.attempts), ops))
	m.set("rewrite.rule_match_ratio", ratio(float64(c.matches), float64(c.attempts)))
	m.set("rewrite.index_pruned", ratio(float64(c.indexPr), ops))
	m.set("rewrite.shape_pruned", ratio(float64(c.shapePr), ops))
	m.set("rewrite.memo_hits", ratio(float64(c.memoHits), ops))
	m.set("rewrite.rewritten_share", ratio(float64(c.rewritten), ops))
	m.set("rewrite.truncated_share", ratio(float64(c.truncated), ops))
}

// stagedShare is the part of the real call's total time the staged children
// account for (sums, so expensive queries weigh as they do end to end).
func stagedShare(t *tracer) float64 {
	var children float64
	for _, name := range []string{"sql.parse", "plan.build", "rewrite.orderby_elim", "rewrite.search", "plan.tosql"} {
		children += t.sumDur(name)
	}
	return ratio(children, t.sumDur("wetune.optimize"))
}
