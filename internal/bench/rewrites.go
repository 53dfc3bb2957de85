package bench

import (
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/rules"
	"wetune/internal/sql"
	"wetune/internal/workload"
)

// Table1 reproduces the motivating examples (Table 1): the ORM-generated
// GitLab queries, what a mainstream-rule rewriter achieves, and the ideal
// form WeTune's rules reach.
func Table1() *Report {
	r := NewReport("Table 1: motivating GitLab queries")
	schema := gitlabSchema()
	cases := []struct {
		name, q string
	}{
		{"q0", `SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10) ORDER BY title ASC)`},
		{"q3", `SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`},
	}
	wetune := rewrite.NewRewriter(workload.WeTuneRules(), schema)
	existing := rewrite.NewRewriter(workload.MSSQLRules(), schema)
	solved := 0
	for _, c := range cases {
		p, err := plan.BuildSQL(c.q, schema)
		if err != nil {
			r.Printf("%s: plan error: %v", c.name, err)
			continue
		}
		base, _, _ := existing.Search(p, rewrite.Options{})
		ideal, applied, _ := wetune.Search(p, rewrite.Options{})
		r.Printf("%s original:  %s", c.name, c.q)
		r.Printf("%s existing:  %s", c.name, plan.ToSQLString(base))
		r.Printf("%s wetune:    %s  (rules %v)", c.name, plan.ToSQLString(ideal), ruleNos(applied))
		if plan.Size(ideal) < plan.Size(base) {
			solved++
		}
	}
	r.Metric("wetune_beats_existing", float64(solved))
	return r
}

func ruleNos(applied []rewrite.Applied) []int {
	out := make([]int, len(applied))
	for i, a := range applied {
		out[i] = a.RuleNo
	}
	return out
}

// Study50 reproduces the §2.2 issue study: how many of the 50 developer-
// rewritten queries each rewriter fixes (paper: WeTune 38, SQL Server 23,
// Calcite 4; misses: 27/46-47 respectively).
func Study50() *Report {
	r := NewReport("Study (2.2): 50 GitHub performance issues")
	issues := workload.Issues()
	systems := []struct {
		name string
		rs   []rules.Rule
	}{
		{"WeTune", workload.WeTuneRules()},
		{"SQL-Server-like", workload.MSSQLRules()},
		{"Calcite-like", workload.CalciteRules()},
	}
	for _, sys := range systems {
		fixed := 0
		for _, is := range issues {
			if issueFixed(sys.rs, is) {
				fixed++
			}
		}
		r.Printf("%-16s fixes %2d / 50 (misses %2d)", sys.name, fixed, 50-fixed)
		r.Metric("fixed_"+sys.name, float64(fixed))
	}
	r.Printf("paper:           WeTune 38, SQL Server 23 (misses 27), Calcite 4 (misses 46-47)")
	return r
}

func issueFixed(rs []rules.Rule, is workload.Issue) bool {
	orig, err := plan.BuildSQL(is.SQL, is.Schema)
	if err != nil {
		return false
	}
	desired, err := plan.BuildSQL(is.Desired, is.Schema)
	if err != nil {
		return false
	}
	rw := rewrite.NewRewriter(rs, is.Schema)
	out, applied, _ := rw.Search(orig, rewrite.Options{})
	return len(applied) > 0 && plan.Size(out) <= plan.Size(desired)
}

// AppRewrites reproduces §8.3's application-corpus numbers: of the generated
// queries (8,518 at the paper's scale), how many WeTune rewrites, and how
// many of those the SQL-Server-like baseline misses (paper: 674 and 247).
func AppRewrites(perApp int) *Report {
	r := NewReport("App corpus (8.3): queries rewritten")
	corpus := workload.Corpus(perApp)
	apps := workload.Apps()
	schemaFor := map[string]*sql.Schema{}
	for _, a := range apps {
		schemaFor[a.Name] = a.Schema
	}
	total, wetuneRewrites, beyond := 0, 0, 0
	trivial := 0
	for appName, qs := range corpus {
		schema := schemaFor[appName]
		wetune := rewrite.NewRewriter(workload.WeTuneRules(), schema)
		mssql := rewrite.NewRewriter(workload.MSSQLRules(), schema)
		for _, q := range qs {
			total++
			if q.Tag == "simple" || q.Tag == "simple2" {
				trivial++
			}
			p, err := plan.BuildSQL(q.SQL, schema)
			if err != nil {
				continue
			}
			base := rewrite.EliminateOrderBy(p)
			wOut, wApplied, _ := wetune.Search(p, rewrite.Options{})
			if len(wApplied) == 0 || plan.Fingerprint(wOut) == plan.Fingerprint(base) {
				continue
			}
			wetuneRewrites++
			mOut, mApplied, _ := mssql.Search(p, rewrite.Options{})
			if len(mApplied) == 0 || plan.Fingerprint(mOut) == plan.Fingerprint(base) ||
				plan.Size(mOut) > plan.Size(wOut) {
				beyond++
			}
		}
	}
	r.Printf("queries: %d total, %d trivially un-rewritable SELECT-WHERE", total, trivial)
	r.Printf("WeTune rewrites %d queries; %d are missed by the SQL-Server-like baseline", wetuneRewrites, beyond)
	r.Printf("paper: 8518 total (4251 trivial), 674 rewritten, 247 beyond SQL Server")
	r.Metric("total", float64(total))
	r.Metric("rewritten", float64(wetuneRewrites))
	r.Metric("beyond_baseline", float64(beyond))
	return r
}

// CalciteRewrites reproduces §8.3's Calcite-suite numbers: of the 464
// individual queries, how many WeTune rewrites and how many of those the
// baseline misses (paper: 120 rewritten, 26 beyond SQL Server).
func CalciteRewrites() *Report {
	r := NewReport("Calcite suite (8.3): queries rewritten")
	schema := workload.CalciteSchema()
	wetune := rewrite.NewRewriter(workload.WeTuneRules(), schema)
	mssql := rewrite.NewRewriter(workload.MSSQLRules(), schema)
	total, rewritten, beyond := 0, 0, 0
	for _, pair := range workload.CalcitePairs() {
		for _, q := range []string{pair.Q1, pair.Q2} {
			total++
			p, err := plan.BuildSQL(q, schema)
			if err != nil {
				continue
			}
			base := rewrite.EliminateOrderBy(p)
			wOut, wApplied, _ := wetune.Search(p, rewrite.Options{})
			if len(wApplied) == 0 || plan.Fingerprint(wOut) == plan.Fingerprint(base) {
				continue
			}
			rewritten++
			mOut, mApplied, _ := mssql.Search(p, rewrite.Options{})
			if len(mApplied) == 0 || plan.Size(mOut) > plan.Size(wOut) {
				beyond++
			}
		}
	}
	r.Printf("queries: %d total; WeTune rewrites %d; %d beyond the SQL-Server-like baseline", total, rewritten, beyond)
	r.Printf("paper: 464 total, 120 rewritten, 26 beyond SQL Server")
	r.Metric("total", float64(total))
	r.Metric("rewritten", float64(rewritten))
	r.Metric("beyond_baseline", float64(beyond))
	return r
}

// gitlabSchema is the Table 1 schema.
func gitlabSchema() *sql.Schema {
	s := sql.NewSchema()
	s.AddTable(&sql.TableDef{
		Name: "labels",
		Columns: []sql.Column{
			{Name: "id", Type: sql.TInt, NotNull: true},
			{Name: "title", Type: sql.TString},
			{Name: "project_id", Type: sql.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	s.AddTable(&sql.TableDef{
		Name: "notes",
		Columns: []sql.Column{
			{Name: "id", Type: sql.TInt, NotNull: true},
			{Name: "type", Type: sql.TString},
			{Name: "commit_id", Type: sql.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	return s
}
