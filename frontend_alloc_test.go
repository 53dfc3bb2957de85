package wetune

import (
	"context"
	"runtime/debug"
	"testing"

	"wetune/internal/plan"
	"wetune/internal/racetest"
	"wetune/internal/sql"
)

// TestFrontEndAllocBudget pins what the cold rewrite path allocates per query
// in its front end — sql.Parse, plan.Build, plan.ToSQLString — and in the
// whole OptimizeSQLResultContext call, for a Proj(Sel(Scan)) query no rule
// rewrites and for an InSub query a rule rewrites. A regression fails here,
// not only in the benchmark.
func TestFrontEndAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	// Collector off while counting: a collection empties the sync.Pools,
	// and their refill would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	schema := demoSchema(t)
	opt := NewOptimizer(BuiltinRules(), schema)
	ctx := context.Background()
	for _, c := range []struct {
		name, query                   string
		rewritten                     bool
		parse, build, print, optimize float64
	}{
		{"Proj(Sel(Scan))", "SELECT id, email FROM users WHERE plan_id = 3", false, 5, 6, 1, 13},
		{"InSub", "SELECT * FROM users WHERE id IN (SELECT id FROM users WHERE plan_id = 3)", true, 6, 10, 1, 27},
	} {
		stmt := sql.MustParse(c.query)
		p := plan.MustBuild(stmt, schema)
		out, applied := opt.Optimize(p)
		if got := len(applied) > 0; got != c.rewritten {
			t.Fatalf("%s: rewritten = %v, want %v", c.name, got, c.rewritten)
		}
		for _, m := range []struct {
			stage  string
			budget float64
			fn     func()
		}{
			{"sql.Parse", c.parse, func() { _, _ = sql.Parse(c.query) }},
			{"plan.Build", c.build, func() { _, _ = plan.Build(stmt, schema) }},
			{"plan.ToSQLString", c.print, func() { _ = plan.ToSQLString(out) }},
			{"OptimizeSQLResultContext", c.optimize, func() { _, _ = opt.OptimizeSQLResultContext(ctx, c.query) }},
		} {
			if n := testing.AllocsPerRun(100, m.fn); n > m.budget {
				t.Errorf("%s: %s allocates %v times, budget %v", c.name, m.stage, n, m.budget)
			}
		}
	}
}
