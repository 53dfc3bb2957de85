// Differential pinning of the served descent against the wide best-first
// reference and the retained greedy loop, external package: the workload
// suite imports rewrite, so an internal test package would cycle.
package rewrite_test

import (
	"sort"
	"testing"

	"wetune/internal/datagen"
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/rules"
	"wetune/internal/sql"
	"wetune/internal/workload"
)

// TestSearchMatchesWideReference pins that a wider frontier does not decide
// a rewrite: over the workload suite (400 generated queries per application,
// which include the rewrite corpus, the Calcite suite and the issue study)
// and the demo schema's regression queries, Search returns byte-identical
// SQL to rewrite.WideSearch (frontier 48, chains of 12, size ties by
// discovery order), under the library rules and under the library plus a
// size-2 discovery's rules.
func TestSearchMatchesWideReference(t *testing.T) {
	type item struct {
		q      string
		schema *sql.Schema
	}
	var items []item
	for _, a := range workload.Apps() {
		for _, q := range workload.GenerateQueries(a, 400) {
			items = append(items, item{q.SQL, a.Schema})
		}
	}
	calcite := workload.CalciteSchema()
	for _, pair := range workload.CalcitePairs() {
		items = append(items, item{pair.Q1, calcite}, item{pair.Q2, calcite})
	}
	for _, is := range workload.Issues() {
		items = append(items, item{is.SQL, is.Schema})
	}
	gitlab := rewrite.GitlabSchema()
	for _, q := range []string{
		`SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10) ORDER BY title ASC)`,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
	} {
		items = append(items, item{q, gitlab})
	}

	plans := make([]plan.Node, len(items))
	for i, it := range items {
		p, err := plan.BuildSQL(it.q, it.schema)
		if err != nil {
			t.Fatalf("%q: %v", it.q, err)
		}
		plans[i] = p
	}

	library := rules.All()
	for _, set := range []struct {
		name  string
		rules []rules.Rule
	}{
		{"library", library},
		{"size2", append(library, discovered(t, 2)...)},
	} {
		rws := map[*sql.Schema]*rewrite.Rewriter{}
		rewritten, truncated := 0, 0
		for i, it := range items {
			rw, ok := rws[it.schema]
			if !ok {
				rw = rewrite.NewRewriter(set.rules, it.schema)
				rws[it.schema] = rw
			}
			wOut, _, wTrunc := rw.WideSearch(plans[i])
			out, applied, _ := rw.Search(plans[i], rewrite.Options{})
			if got, want := plan.ToSQLString(out), plan.ToSQLString(wOut); got != want {
				t.Errorf("%s: %q:\n  search:    %s\n  reference: %s", set.name, it.q, got, want)
			}
			if len(applied) > 0 {
				rewritten++
			}
			if wTrunc {
				truncated++
			}
		}
		t.Logf("%s: %d queries, %d rewritten, identical to the reference (%d reference searches truncated)",
			set.name, len(items), rewritten, truncated)
	}
}

// TestSearchEquivalentToGreedyOnWorkloads is the acceptance pin for the
// engine swap: under default settings, for every plannable query of the full
// workload suite (application corpus + Calcite suite + issue study), the
// search engine's rewritten SQL is identical to the greedy loop's — or the
// plan visits strictly fewer rows on 500 generated rows per table.
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
	dbs := map[*sql.Schema]*engine.DB{}
	rwFor := func(s *sql.Schema) *rewrite.Rewriter {
		if rw, ok := rewriters[s]; ok {
			return rw
		}
		rw := rewrite.NewRewriter(workload.WeTuneRules(), s)
		rewriters[s] = rw
		return rw
	}
	dbFor := func(s *sql.Schema) *engine.DB {
		if db, ok := dbs[s]; ok {
			return db
		}
		db := engine.NewDB(s)
		if err := datagen.Populate(db, datagen.Options{Rows: 500, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		dbs[s] = db
		return db
	}

	planned, identical, fewer := 0, 0, 0
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
		gRows, sRows := rowsVisited(t, db, gOut), rowsVisited(t, db, sOut)
		if sRows < gRows {
			fewer++
			continue
		}
		t.Fatalf("search diverges from greedy on %q (%s) without visiting fewer rows:\n"+
			"  greedy (%d rows): %s\n  search (%d rows): %s",
			it.q, it.name, gRows, gSQL, sRows, sSQL)
	}
	if planned == 0 {
		t.Fatal("workload suite yielded no plannable queries")
	}
	t.Logf("differential over %d queries: %d identical, %d visit strictly fewer rows", planned, identical, fewer)
}
