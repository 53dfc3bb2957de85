package rewrite

import (
	"strings"
	"testing"

	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/sql"
)

// gitlabSchema mirrors the paper's motivating tables (Table 1).
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
	s.AddTable(&sql.TableDef{
		Name: "projects",
		Columns: []sql.Column{
			{Name: "id", Type: sql.TInt, NotNull: true},
			{Name: "name", Type: sql.TString},
		},
		PrimaryKey: []string{"id"},
	})
	s.AddTable(&sql.TableDef{
		Name: "issues",
		Columns: []sql.Column{
			{Name: "id", Type: sql.TInt, NotNull: true},
			{Name: "project_id", Type: sql.TInt, NotNull: true},
			{Name: "title", Type: sql.TString},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []sql.ForeignKey{
			{Columns: []string{"project_id"}, RefTable: "projects", RefColumns: []string{"id"}},
		},
	})
	return s
}

func mustPlan(t *testing.T, q string, schema *sql.Schema) plan.Node {
	t.Helper()
	p, err := plan.BuildSQL(q, schema)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return p
}

func newRW(t *testing.T) *Rewriter {
	t.Helper()
	return NewRewriter(rules.All(), gitlabSchema())
}

func TestRewriteRedundantInSub(t *testing.T) {
	// Rule 4: the duplicate IN-subquery disappears.
	rw := newRW(t)
	p := mustPlan(t, `SELECT * FROM labels
	    WHERE id IN (SELECT id FROM labels WHERE project_id = 10)
	      AND id IN (SELECT id FROM labels WHERE project_id = 10)`, rw.Schema)
	out, applied, _ := rw.Search(p, Options{})
	if len(applied) == 0 {
		t.Fatal("no rules applied")
	}
	if plan.OpCounts(out)[plan.KInSub] >= plan.OpCounts(p)[plan.KInSub] {
		t.Fatalf("duplicate IN-subquery not eliminated:\n%s", plan.ToSQLString(out))
	}
}

func TestRewriteTable1Q3(t *testing.T) {
	// Table 1's q3 -> q4: the self IN-subquery on the primary key vanishes.
	rw := newRW(t)
	p := mustPlan(t, `SELECT id FROM notes WHERE type = 'D'
	     AND id IN (SELECT id FROM notes WHERE commit_id = 7)`, rw.Schema)
	out, applied, _ := rw.Search(p, Options{})
	if plan.OpCounts(out)[plan.KInSub] != 0 {
		t.Fatalf("IN-subquery survived: %s (applied %v)", plan.ToSQLString(out), applied)
	}
	// The rewritten query must keep both filters.
	sqlText := plan.ToSQLString(out)
	if !strings.Contains(sqlText, "commit_id") || !strings.Contains(sqlText, "type") {
		t.Fatalf("filters lost: %s", sqlText)
	}
}

func TestRewriteTable1Q0(t *testing.T) {
	// Table 1's q0 -> q2: nested duplicate subqueries and a useless ORDER BY.
	rw := newRW(t)
	p := mustPlan(t, `SELECT * FROM labels WHERE id IN (
	        SELECT id FROM labels WHERE id IN (
	          SELECT id FROM labels WHERE project_id = 10) ORDER BY title ASC)`, rw.Schema)
	out, applied, _ := rw.Search(p, Options{})
	if plan.OpCounts(out)[plan.KSort] != 0 {
		t.Fatalf("ORDER BY survived: %s", plan.ToSQLString(out))
	}
	if plan.OpCounts(out)[plan.KInSub] != 0 {
		t.Fatalf("IN-subqueries survived (applied %v): %s", applied, plan.ToSQLString(out))
	}
}

func TestRewriteJoinElimination(t *testing.T) {
	// Rule 7 via the issues -> projects foreign key.
	rw := newRW(t)
	p := mustPlan(t, `SELECT issues.title FROM issues
	     INNER JOIN projects ON issues.project_id = projects.id`, rw.Schema)
	out, applied, _ := rw.Search(p, Options{})
	if plan.OpCounts(out)[plan.KJoin] != 0 {
		t.Fatalf("join not eliminated (applied %v): %s", applied, plan.ToSQLString(out))
	}
}

func TestRewriteJoinEliminationNeedsFK(t *testing.T) {
	// labels.project_id has no FK: the join must stay.
	rw := newRW(t)
	p := mustPlan(t, `SELECT labels.title FROM labels
	     INNER JOIN projects ON labels.project_id = projects.id`, rw.Schema)
	out, _, _ := rw.Search(p, Options{})
	if plan.OpCounts(out)[plan.KJoin] == 0 {
		t.Fatalf("join wrongly eliminated: %s", plan.ToSQLString(out))
	}
}

func TestRewriteLeftJoinElimination(t *testing.T) {
	// Rule 11: LEFT JOIN against a unique key, projecting left columns only.
	rw := newRW(t)
	p := mustPlan(t, `SELECT labels.title FROM labels
	     LEFT JOIN projects ON labels.project_id = projects.id`, rw.Schema)
	out, applied, _ := rw.Search(p, Options{})
	if plan.OpCounts(out)[plan.KJoin] != 0 {
		t.Fatalf("left join not eliminated (applied %v): %s", applied, plan.ToSQLString(out))
	}
}

func TestRewriteDedupOnUniqueKey(t *testing.T) {
	// Rule 2: DISTINCT over the primary key is a no-op.
	rw := newRW(t)
	p := mustPlan(t, "SELECT DISTINCT id FROM labels", rw.Schema)
	out, _, _ := rw.Search(p, Options{})
	if plan.OpCounts(out)[plan.KDedup] != 0 {
		t.Fatalf("Dedup survived: %s", plan.ToSQLString(out))
	}
	// DISTINCT on a non-unique column must stay.
	p2 := mustPlan(t, "SELECT DISTINCT title FROM labels", rw.Schema)
	out2, _, _ := rw.Search(p2, Options{})
	if plan.OpCounts(out2)[plan.KDedup] != 1 {
		t.Fatalf("Dedup wrongly removed: %s", plan.ToSQLString(out2))
	}
}

func TestRewritePreservesResults(t *testing.T) {
	schema := gitlabSchema()
	db := engine.NewDB(schema)
	for i := int64(1); i <= 50; i++ {
		db.MustInsert("labels", engine.Row{sql.NewInt(i), sql.NewString("t"), sql.NewInt(i%5 + 1)})
		db.MustInsert("notes", engine.Row{sql.NewInt(i), sql.NewString("D"), sql.NewInt(i % 7)})
	}
	for i := int64(1); i <= 5; i++ {
		db.MustInsert("projects", engine.Row{sql.NewInt(i), sql.NewString("p")})
	}
	for i := int64(1); i <= 30; i++ {
		db.MustInsert("issues", engine.Row{sql.NewInt(i), sql.NewInt(i%5 + 1), sql.NewString("i")})
	}
	queries := []string{
		`SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 3) AND id IN (SELECT id FROM labels WHERE project_id = 3)`,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 3)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
		`SELECT labels.title FROM labels LEFT JOIN projects ON labels.project_id = projects.id`,
		`SELECT DISTINCT id FROM labels`,
		`SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 2) ORDER BY title ASC)`,
	}
	sameBag := func(a, b []engine.Row) bool {
		count := map[string]int{}
		for _, r := range a {
			count[r.Key(nil)]++
		}
		for _, r := range b {
			count[r.Key(nil)]--
		}
		for _, n := range count {
			if n != 0 {
				return false
			}
		}
		return true
	}
	rw := NewRewriter(rules.All(), schema)
	for _, q := range queries {
		orig := mustPlan(t, q, schema)
		rewritten, applied, _ := rw.Search(orig, Options{})
		r1, err := db.Execute(orig, nil)
		if err != nil {
			t.Fatalf("exec orig %q: %v", q, err)
		}
		r2, err := db.Execute(rewritten, nil)
		if err != nil {
			t.Fatalf("exec rewritten %q: %v", q, err)
		}
		if !sameBag(r1.Rows, r2.Rows) {
			t.Errorf("rewrite changed results for %q (applied %v)\n  orig: %d rows\n  new:  %d rows\n  plan: %s",
				q, applied, len(r1.Rows), len(r2.Rows), plan.ToSQLString(rewritten))
		}
	}
}

func TestEliminateOrderBy(t *testing.T) {
	schema := gitlabSchema()
	// Root ORDER BY survives; subquery ORDER BY does not.
	p := mustPlan(t, "SELECT * FROM labels ORDER BY id ASC", schema)
	out := EliminateOrderBy(p)
	if plan.OpCounts(out)[plan.KSort] != 1 {
		t.Fatal("root ORDER BY must survive")
	}
	p2 := mustPlan(t, `SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 1 ORDER BY title ASC)`, schema)
	out2 := EliminateOrderBy(p2)
	if plan.OpCounts(out2)[plan.KSort] != 0 {
		t.Fatal("subquery ORDER BY must be eliminated")
	}
	// ORDER BY + LIMIT in a subquery is semantic: it must survive.
	p3 := mustPlan(t, `SELECT * FROM labels WHERE id IN (SELECT id FROM labels ORDER BY title ASC LIMIT 3)`, schema)
	out3 := EliminateOrderBy(p3)
	if plan.OpCounts(out3)[plan.KSort] != 1 {
		t.Fatal("ORDER BY under LIMIT must survive")
	}
}

func TestCandidatesDoNotLoop(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, `SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`, rw.Schema)
	out, applied, _ := rw.Search(p, Options{})
	if len(applied) > (Options{}).withDefaults().maxSteps {
		t.Fatalf("rewrite did not terminate: %d steps", len(applied))
	}
	_ = out
}

func TestReduceKeepsIrreducibleRules(t *testing.T) {
	// A tiny rule set with no overlap: nothing should be removed.
	var rs []rules.Rule
	for _, no := range []int{2, 4, 7} {
		r, _ := rules.ByNo(no)
		rs = append(rs, r)
	}
	kept, removed := Reduce(rs)
	if len(removed) != 0 {
		t.Fatalf("removed %d rules from an independent set", len(removed))
	}
	if len(kept) != 3 {
		t.Fatalf("kept = %d", len(kept))
	}
}
