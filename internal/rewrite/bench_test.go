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
func benchPlans(b *testing.B) (*Rewriter, []plan.Node) {
	b.Helper()
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
			b.Fatal(err)
		}
		plans = append(plans, p)
	}
	return rw, plans
}

// BenchmarkSearch measures the full beam search over representative plans —
// the allocation budget this guards is the pooled search scratch.
func BenchmarkSearch(b *testing.B) {
	rw, plans := benchPlans(b)
	opts := Options{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plans[i%len(plans)]
		rw.Search(p, opts)
	}
}

// BenchmarkSearchNoAttempt measures a search in which no rule is attempted —
// 82 % of the benchmark corpus: the index and the shape precheck rule every
// rule out, so the search pays only for its bookkeeping.
func BenchmarkSearchNoAttempt(b *testing.B) {
	schema := gitlabSchema()
	rw := NewRewriter(rules.All(), schema)
	p, err := plan.BuildSQL(`SELECT title FROM labels WHERE project_id = 1`, schema)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{SkipOrderByElim: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.Search(p, opts)
	}
}

// BenchmarkCandidates measures single-step candidate generation, the inner
// loop of the search.
func BenchmarkCandidates(b *testing.B) {
	rw, plans := benchPlans(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.Candidates(plans[i%len(plans)])
	}
}

// BenchmarkResultCacheGet measures a sharded-cache hit on a warm cache — the
// serving fast path when a query repeats.
func BenchmarkResultCacheGet(b *testing.B) {
	c := NewResultCache(1024)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT id FROM labels WHERE project_id = %d", i)
		c.Put(keys[i], CachedResult{SQL: keys[i]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkResultCacheParallel measures contended mixed Get/Put traffic across
// shards — the case the sharding exists for. The key set fits the capacity
// (eviction churn lives in TestShardedCacheStress) so allocs/op is
// deterministic and usable as a benchcmp baseline.
func BenchmarkResultCacheParallel(b *testing.B) {
	c := NewResultCache(1024)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT id FROM labels WHERE project_id = %d", i)
		c.Put(keys[i], CachedResult{SQL: keys[i]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := keys[i%len(keys)]
			if i%8 == 0 {
				c.Put(key, CachedResult{SQL: key})
			} else if _, ok := c.Get(key); !ok {
				b.Error("unexpected miss")
				return
			}
			i++
		}
	})
}
