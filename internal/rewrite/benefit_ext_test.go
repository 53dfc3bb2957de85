package rewrite_test

import (
	"testing"

	"wetune/internal/datagen"
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/rules"
	"wetune/internal/workload"
)

// TestLibraryRewritesVisitNoMoreRows measures what the size ranking buys:
// every corpus query the library rules rewrite is executed before (after
// ORDER BY elimination, the plan the search starts from) and after, on 500
// generated rows per table, uniform with seed 1 and Zipf θ 1.5 with seed 2.
// No rewrite may make the executor visit more rows, and the split between
// fewer and equal is pinned.
func TestLibraryRewritesVisitNoMoreRows(t *testing.T) {
	type pair struct {
		app     string
		in, out plan.Node
	}
	schemas, items := workload.RewriteCorpus(100)
	rws := map[string]*rewrite.Rewriter{}
	var pairs []pair
	for _, it := range items {
		p, err := plan.BuildSQL(it.SQL, schemas[it.App])
		if err != nil {
			continue
		}
		rw, ok := rws[it.App]
		if !ok {
			rw = rewrite.NewRewriter(rules.All(), schemas[it.App])
			rws[it.App] = rw
		}
		out, applied, _ := rw.Search(p, rewrite.Options{})
		if len(applied) > 0 {
			pairs = append(pairs, pair{it.App, rewrite.EliminateOrderBy(p), out})
		}
	}
	if len(pairs) != 353 {
		t.Errorf("the library rewrites %d corpus queries, want 353", len(pairs))
	}

	for _, data := range []struct {
		name         string
		opts         datagen.Options
		fewer, equal int
	}{
		{"uniform", datagen.Options{Rows: 500, Seed: 1}, 352, 1},
		{"zipf", datagen.Options{Rows: 500, Seed: 2, Dist: datagen.Zipfian, Theta: 1.5}, 353, 0},
	} {
		dbs := map[string]*engine.DB{}
		fewer, equal := 0, 0
		for _, pr := range pairs {
			db, ok := dbs[pr.app]
			if !ok {
				db = engine.NewDB(schemas[pr.app])
				if err := datagen.Populate(db, data.opts); err != nil {
					t.Fatal(err)
				}
				dbs[pr.app] = db
			}
			in, out := rowsVisited(t, db, pr.in), rowsVisited(t, db, pr.out)
			switch {
			case out < in:
				fewer++
			case out == in:
				equal++
			default:
				t.Errorf("%s: the rewrite visits %d rows, its input %d:\n  input:  %s\n  output: %s",
					data.name, out, in, plan.ToSQLString(pr.in), plan.ToSQLString(pr.out))
			}
		}
		t.Logf("%s: %d rewrites visit fewer rows, %d as many", data.name, fewer, equal)
		if fewer != data.fewer || equal != data.equal {
			t.Errorf("%s: %d fewer and %d equal, want %d and %d", data.name, fewer, equal, data.fewer, data.equal)
		}
	}
}

// rowsVisited executes p on db and returns the rows the executor visited.
func rowsVisited(t *testing.T, db *engine.DB, p plan.Node) int64 {
	t.Helper()
	before := db.Stats.RowsVisited
	if _, err := db.Execute(p, nil); err != nil {
		t.Fatalf("%s: %v", plan.ToSQLString(p), err)
	}
	return db.Stats.RowsVisited - before
}
