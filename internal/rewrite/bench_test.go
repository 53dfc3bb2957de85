package rewrite

import (
	"fmt"
	"testing"

	"wetune/internal/plan"
	"wetune/internal/rules"
)

// benchPlans builds the plans the search benchmark drives: one nested-IN
// query that exercises the deep rewrite chain, one join, one DISTINCT filter —
// the same shapes the workload corpus is built from.
func benchPlans(tb testing.TB) (*Rewriter, []plan.Node) {
	tb.Helper()
	schema := gitlabSchema()
	rw := NewRewriter(rules.All(), schema)
	queries := []string{
		q0,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id WHERE projects.id = 4`,
		`SELECT DISTINCT id FROM labels WHERE project_id = 3 ORDER BY id ASC`,
	}
	plans := make([]plan.Node, 0, len(queries))
	for _, q := range queries {
		p, err := plan.BuildSQL(q, schema)
		if err != nil {
			tb.Fatal(err)
		}
		plans = append(plans, p)
	}
	return rw, plans
}

// noAttemptPlan is a plan whose search attempts no rule — 82 % of the
// benchmark corpus: the index and the shape precheck rule every rule out, so
// the search pays only for its bookkeeping.
func noAttemptPlan(tb testing.TB) (*Rewriter, plan.Node, Options) {
	tb.Helper()
	schema := gitlabSchema()
	p, err := plan.BuildSQL(`SELECT title FROM labels WHERE project_id = 1`, schema)
	if err != nil {
		tb.Fatal(err)
	}
	return NewRewriter(rules.All(), schema), p, Options{SkipOrderByElim: true}
}

// warmCache is a result cache holding 512 queries, within its capacity, so
// no operation on it evicts.
func warmCache() (*ResultCache, []string) {
	c := NewResultCache(1024)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT id FROM labels WHERE project_id = %d", i)
		c.Put(keys[i], CachedResult{SQL: keys[i]})
	}
	return c, keys
}

// mixedOp is the i-th operation of mixed cache traffic: every eighth a Put
// over a present key, the rest Gets. It reports whether a Get missed.
func mixedOp(c *ResultCache, keys []string, i int) (missed bool) {
	key := keys[i%len(keys)]
	if i%8 == 0 {
		c.Put(key, CachedResult{SQL: key})
		return false
	}
	_, ok := c.Get(key)
	return !ok
}

// BenchmarkSearch measures one op as a full search of each of benchPlans —
// the allocation budget this guards is the pooled search scratch.
func BenchmarkSearch(b *testing.B) {
	rw, plans := benchPlans(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			rw.Search(p, Options{})
		}
	}
}

// BenchmarkSearchNoAttempt measures a search in which no rule is attempted.
func BenchmarkSearchNoAttempt(b *testing.B) {
	rw, p, opts := noAttemptPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.Search(p, opts)
	}
}

// BenchmarkCandidates measures single-step candidate generation, the inner
// loop of the search, once on each of benchPlans per op.
func BenchmarkCandidates(b *testing.B) {
	rw, plans := benchPlans(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			rw.Candidates(p)
		}
	}
}

// BenchmarkResultCacheGet measures a sharded-cache hit on a warm cache — the
// serving fast path when a query repeats.
func BenchmarkResultCacheGet(b *testing.B) {
	c, keys := warmCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkResultCacheParallel measures contended mixed Get/Put traffic across
// shards — the case the sharding exists for. Eviction churn lives in
// TestShardedCacheStress; TestSearchAllocBudget pins the same operations,
// run on one goroutine, at zero allocations.
func BenchmarkResultCacheParallel(b *testing.B) {
	c, keys := warmCache()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if mixedOp(c, keys, i) {
				b.Error("unexpected miss")
				return
			}
		}
	})
}
