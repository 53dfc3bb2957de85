package wetune

import (
	"context"
	"reflect"
	"testing"
	"time"

	"wetune/internal/workload"
)

// TestExplainMatchesOptimizeWorkload pins "one rewrite path" across the full
// evaluation corpus, with and without both cache tiers: for every plannable
// query, every entry point — OptimizeSQLResult, OptimizeSQLResultContext,
// OptimizeSQLResultMode(ModeFull), ExplainSQL, and Optimize over PlanSQL's
// plan — must report the same output SQL and applied
// chain, and ExplainSQL the same costs and search stats as the rewrite it
// explains, with the provenance steps index-aligned to the applied chain. An
// explanation that disagrees with the optimizer it explains is worse than
// none.
func TestExplainMatchesOptimizeWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload sweep")
	}
	for _, caches := range []bool{false, true} {
		name := "no-cache"
		if caches {
			name = "both-cache-tiers"
		}
		t.Run(name, func(t *testing.T) { explainMatchesOptimize(t, caches) })
	}
}

func explainMatchesOptimize(t *testing.T, caches bool) {
	ctx := context.Background()
	schemas, items := workload.RewriteCorpus(100)
	opts := map[string]*Optimizer{}
	for app, schema := range schemas {
		o := NewOptimizer(BuiltinRules(), schema)
		if caches {
			o.EnableResultCache(0)
			o.EnablePlanCache(0)
		}
		opts[app] = o
	}
	queries, rewritten := 0, 0
	for _, it := range items {
		o := opts[it.App]
		res, err := o.OptimizeSQLResult(it.SQL)
		if err != nil {
			continue // unplannable queries fail identically on every path
		}
		queries++
		planned := func(entry string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: OptimizeSQLResult planned but %s errored: %v", it.SQL, entry, err)
			}
		}
		same := func(entry, output string, applied []Applied) {
			t.Helper()
			if output != res.Output {
				t.Fatalf("%s:\n%s output: %s\nOptimizeSQLResult output: %s", it.SQL, entry, output, res.Output)
			}
			if !reflect.DeepEqual(applied, res.Applied) {
				t.Fatalf("%s: applied chains differ:\n%s: %+v\nOptimizeSQLResult: %+v", it.SQL, entry, applied, res.Applied)
			}
		}
		viaCtx, err := o.OptimizeSQLResultContext(ctx, it.SQL)
		planned("OptimizeSQLResultContext", err)
		same("OptimizeSQLResultContext", viaCtx.Output, viaCtx.Applied)
		viaMode, err := o.OptimizeSQLResultMode(time.Time{}, it.SQL, ModeFull)
		planned("OptimizeSQLResultMode", err)
		same("OptimizeSQLResultMode", viaMode.Output, viaMode.Applied)
		p, err := o.PlanSQL(it.SQL)
		planned("PlanSQL", err)
		optimized, applied := o.Optimize(p)
		same("Optimize", PlanToSQL(optimized), applied)

		ex, err := o.ExplainSQL(ctx, it.SQL)
		planned("ExplainSQL", err)
		same("ExplainSQL", ex.Output, ex.Applied)
		if ex.CostBefore != res.CostBefore || ex.CostAfter != res.CostAfter {
			t.Fatalf("%s: costs differ: explain %v→%v, optimize %v→%v",
				it.SQL, ex.CostBefore, ex.CostAfter, res.CostBefore, res.CostAfter)
		}
		if ex.Stats != res.Stats {
			t.Fatalf("%s: stats differ:\nexplain:  %+v\noptimize: %+v", it.SQL, ex.Stats, res.Stats)
		}
		prov := ex.Provenance
		if prov == nil {
			t.Fatalf("%s: ExplainSQL returned nil provenance", it.SQL)
		}
		if len(prov.Steps) != len(res.Applied) {
			t.Fatalf("%s: %d provenance steps vs %d applied", it.SQL, len(prov.Steps), len(res.Applied))
		}
		for i, s := range prov.Steps {
			if s.RuleNo != res.Applied[i].RuleNo || s.RuleName != res.Applied[i].RuleName {
				t.Fatalf("%s step %d: provenance %d/%s vs applied %d/%s",
					it.SQL, i, s.RuleNo, s.RuleName, res.Applied[i].RuleNo, res.Applied[i].RuleName)
			}
		}
		if len(res.Applied) > 0 {
			rewritten++
		}
	}
	if queries < 2000 {
		t.Fatalf("workload shrank: only %d plannable queries", queries)
	}
	if rewritten == 0 {
		t.Fatal("no query in the workload was rewritten")
	}
	t.Logf("every entry point agreed on %d queries (%d rewritten)", queries, rewritten)
}

// TestExplainBypassesResultCache: explanations always describe a real search,
// even when the result cache would have answered.
func TestExplainBypassesResultCache(t *testing.T) {
	schema := MustParseSchema(`CREATE TABLE t (id INT PRIMARY KEY, v INT);`)
	o := NewOptimizer(BuiltinRules(), schema)
	o.EnableResultCache(8)
	const q = `SELECT id FROM t WHERE id IN (SELECT id FROM t)`
	if _, err := o.OptimizeSQLResult(q); err != nil {
		t.Fatal(err)
	}
	res, err := o.OptimizeSQLResult(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second OptimizeSQLResult should hit the cache")
	}
	ex, err := o.ExplainSQL(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Cached {
		t.Fatal("ExplainSQL must not be served from the result cache")
	}
	if ex.Provenance == nil || len(ex.Provenance.WhyNot) == 0 {
		t.Fatal("ExplainSQL recorded no search")
	}
	if ex.Output != res.Output || !reflect.DeepEqual(ex.Applied, res.Applied) {
		t.Fatalf("explain and cached optimize disagree: %q vs %q", ex.Output, res.Output)
	}
	stats, ok := o.ResultCacheStats()
	if !ok {
		t.Fatal("ResultCacheStats should report an enabled cache")
	}
	if stats.Hits != 1 || stats.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", stats)
	}
	if stats.HitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", stats.HitRate)
	}
}
