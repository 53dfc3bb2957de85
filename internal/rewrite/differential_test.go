// Differential pinning of the indexed best-first search against the retained
// greedy loop, external package: the workload suite imports rewrite, so an
// internal test package would cycle.
package rewrite_test

import (
	"sort"
	"testing"

	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/sql"
	"wetune/internal/workload"
)

// TestSearchEquivalentToGreedyOnWorkloads is the acceptance pin for the
// engine swap: under default settings, for every plannable query of the full
// workload suite (application corpus + Calcite suite + issue study), the
// search engine's rewritten SQL is identical to the greedy loop's — or the
// plan is strictly cheaper under the engine cost model.
func TestSearchEquivalentToGreedyOnWorkloads(t *testing.T) {
	type item struct {
		name   string
		q      string
		schema *sql.Schema
	}
	var items []item
	schemaFor := map[string]*sql.Schema{}
	for _, a := range workload.Apps() {
		schemaFor[a.Name] = a.Schema
	}
	corpus := workload.Corpus(100)
	apps := make([]string, 0, len(corpus))
	for name := range corpus {
		apps = append(apps, name)
	}
	sort.Strings(apps)
	for _, name := range apps {
		for _, q := range corpus[name] {
			items = append(items, item{name, q.SQL, schemaFor[name]})
		}
	}
	calcite := workload.CalciteSchema()
	for _, pair := range workload.CalcitePairs() {
		items = append(items, item{"calcite", pair.Q1, calcite}, item{"calcite", pair.Q2, calcite})
	}
	for _, is := range workload.Issues() {
		items = append(items, item{"issues", is.SQL, is.Schema})
	}

	rewriters := map[*sql.Schema]*rewrite.Rewriter{}
	costDBs := map[*sql.Schema]*engine.DB{}
	rwFor := func(s *sql.Schema) *rewrite.Rewriter {
		if rw, ok := rewriters[s]; ok {
			return rw
		}
		rw := rewrite.NewRewriter(workload.WeTuneRules(), s)
		rewriters[s] = rw
		return rw
	}
	dbFor := func(s *sql.Schema) *engine.DB {
		if db, ok := costDBs[s]; ok {
			return db
		}
		db := engine.NewDB(s)
		costDBs[s] = db
		return db
	}

	planned, identical, cheaper := 0, 0, 0
	for _, it := range items {
		p, err := plan.BuildSQL(it.q, it.schema)
		if err != nil {
			continue
		}
		planned++
		rw := rwFor(it.schema)
		gOut, _ := rw.GreedyRewrite(p)
		sOut, _, _ := rw.Search(p, rewrite.Options{})
		gSQL, sSQL := plan.ToSQLString(gOut), plan.ToSQLString(sOut)
		if gSQL == sSQL {
			identical++
			continue
		}
		db := dbFor(it.schema)
		gCost, sCost := db.EstimateCost(gOut), db.EstimateCost(sOut)
		if sCost < gCost {
			cheaper++
			continue
		}
		t.Fatalf("search diverges from greedy on %q (%s) without being cheaper:\n"+
			"  greedy (cost %.1f): %s\n  search (cost %.1f): %s",
			it.q, it.name, gCost, gSQL, sCost, sSQL)
	}
	if planned == 0 {
		t.Fatal("workload suite yielded no plannable queries")
	}
	t.Logf("differential over %d queries: %d identical, %d strictly cheaper", planned, identical, cheaper)
}
