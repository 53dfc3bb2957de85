package engine

import (
	"fmt"
	"sort"
	"testing"

	"wetune/internal/plan"
	"wetune/internal/sql"
)

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
		Name: "projects",
		Columns: []sql.Column{
			{Name: "id", Type: sql.TInt, NotNull: true},
			{Name: "name", Type: sql.TString},
		},
		PrimaryKey: []string{"id"},
	})
	return s
}

func seededDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(gitlabSchema())
	for i := int64(1); i <= 10; i++ {
		name := sql.NewString("proj")
		db.MustInsert("projects", Row{sql.NewInt(i), name})
	}
	titles := []string{"bug", "feature", "chore", "bug", "docs"}
	for i := int64(1); i <= 100; i++ {
		title := sql.NewString(titles[i%5])
		projectID := sql.NewInt(i%10 + 1)
		if i%20 == 0 {
			projectID = sql.Null // some labels without a project
		}
		db.MustInsert("labels", Row{sql.NewInt(i), title, projectID})
	}
	return db
}

// sameBag reports whether a and b hold the same rows, each as often.
func sameBag(a, b []Row) bool {
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

func run(t *testing.T, db *DB, q string, params ...sql.Value) *Result {
	t.Helper()
	p, err := plan.BuildSQL(q, db.Schema)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	res, err := db.Execute(p, params)
	if err != nil {
		t.Fatalf("execute %q: %v", q, err)
	}
	return res
}

func TestScanAndFilter(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT id FROM labels WHERE project_id = 3")
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
}

func TestIndexedPointLookup(t *testing.T) {
	db := seededDB(t)
	before := db.Stats.RowsVisited
	res := run(t, db, "SELECT title FROM labels WHERE id = 42")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	visited := db.Stats.RowsVisited - before
	if visited > 5 {
		t.Fatalf("point lookup visited %d rows; index not used", visited)
	}
	if db.Stats.IndexLookups == 0 {
		t.Fatal("index lookup not counted")
	}
}

func TestNullSemanticsInFilter(t *testing.T) {
	db := seededDB(t)
	// 5 labels have NULL project_id; equality with NULL is unknown -> dropped.
	all := run(t, db, "SELECT id FROM labels WHERE project_id = 1 OR project_id <> 1")
	if len(all.Rows) != 95 {
		t.Fatalf("rows = %d, want 95 (NULLs excluded)", len(all.Rows))
	}
	nulls := run(t, db, "SELECT id FROM labels WHERE project_id IS NULL")
	if len(nulls.Rows) != 5 {
		t.Fatalf("IS NULL rows = %d, want 5", len(nulls.Rows))
	}
}

func TestInSubqueryOperator(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT id FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 3)")
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
}

func TestHashJoin(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT labels.id FROM labels INNER JOIN projects ON labels.project_id = projects.id")
	if len(res.Rows) != 95 {
		t.Fatalf("inner join rows = %d, want 95", len(res.Rows))
	}
}

func TestLeftJoinPadsNulls(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT labels.id, projects.name FROM labels LEFT JOIN projects ON labels.project_id = projects.id")
	if len(res.Rows) != 100 {
		t.Fatalf("left join rows = %d, want 100", len(res.Rows))
	}
	nulls := 0
	for _, row := range res.Rows {
		if row[1].IsNull() {
			nulls++
		}
	}
	if nulls != 5 {
		t.Fatalf("padded rows = %d, want 5", nulls)
	}
}

func TestRightJoin(t *testing.T) {
	db := seededDB(t)
	// Every project has labels, so RIGHT JOIN matches the inner join count.
	res := run(t, db, "SELECT projects.id FROM labels RIGHT JOIN projects ON labels.project_id = projects.id")
	if len(res.Rows) != 95 {
		t.Fatalf("right join rows = %d, want 95", len(res.Rows))
	}
}

func TestDistinctAndOrderLimit(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT DISTINCT title FROM labels ORDER BY title ASC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0][0].S != "bug" || res.Rows[1][0].S != "chore" {
		t.Fatalf("order wrong: %v", res.Rows)
	}
}

func TestAggregation(t *testing.T) {
	db := seededDB(t)
	// Project 1 loses five labels to NULL project_ids, so only 9 groups
	// clear the HAVING threshold.
	res := run(t, db, "SELECT project_id, COUNT(*) AS n FROM labels WHERE project_id IS NOT NULL GROUP BY project_id HAVING COUNT(*) > 5 ORDER BY project_id ASC")
	if len(res.Rows) != 9 {
		t.Fatalf("groups = %d, want 9", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].I <= 5 {
			t.Fatalf("HAVING not applied: %v", row)
		}
	}
}

func TestAggregateFunctions(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT COUNT(*), MIN(id), MAX(id), SUM(id), AVG(id) FROM labels WHERE id <= 4")
	row := res.Rows[0]
	if row[0].I != 4 || row[1].I != 1 || row[2].I != 4 || row[3].I != 10 {
		t.Fatalf("aggregates wrong: %v", row)
	}
	if row[4].F != 2.5 {
		t.Fatalf("avg = %v, want 2.5", row[4])
	}
}

func TestUnion(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT id FROM labels WHERE id = 1 UNION SELECT id FROM labels WHERE id = 1")
	if len(res.Rows) != 1 {
		t.Fatalf("UNION rows = %d, want 1 (dedup)", len(res.Rows))
	}
	res = run(t, db, "SELECT id FROM labels WHERE id = 1 UNION ALL SELECT id FROM labels WHERE id = 1")
	if len(res.Rows) != 2 {
		t.Fatalf("UNION ALL rows = %d, want 2", len(res.Rows))
	}
}

func TestCorrelatedExists(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT projects.id FROM projects WHERE EXISTS (SELECT 1 FROM labels WHERE labels.project_id = projects.id AND labels.title = 'docs')")
	if len(res.Rows) == 0 {
		t.Fatal("correlated EXISTS returned nothing")
	}
}

// TestSubqueryExecsPerStatement pins when a subquery is planned and when its
// result is reused: each is planned once per statement; an EXISTS that reads
// no outer column runs once, a correlated one once per outer row.
func TestSubqueryExecsPerStatement(t *testing.T) {
	db := NewDB(gitlabSchema())
	for i := int64(1); i <= 50; i++ {
		db.MustInsert("labels", Row{sql.NewInt(i), sql.NewString("bug"), sql.NewInt(i%5 + 1)})
	}
	for i := int64(1); i <= 5; i++ {
		db.MustInsert("projects", Row{sql.NewInt(i), sql.NewString("proj")})
	}
	for _, c := range []struct {
		q     string
		execs int64
	}{
		{"SELECT labels.id FROM labels WHERE EXISTS (SELECT 1 FROM projects WHERE projects.id = 3)", 1},
		{"SELECT labels.id FROM labels WHERE EXISTS (SELECT 1 FROM projects WHERE projects.id = labels.project_id)", 50},
	} {
		before := db.Stats
		if res := run(t, db, c.q); len(res.Rows) != 50 {
			t.Errorf("%s: %d rows, want 50", c.q, len(res.Rows))
		}
		if got := db.Stats.SubqueryExecs - before.SubqueryExecs; got != c.execs {
			t.Errorf("%s: %d subquery executions, want %d", c.q, got, c.execs)
		}
		if got := db.Stats.SubqueryPlans - before.SubqueryPlans; got != 1 {
			t.Errorf("%s: %d subquery plans, want 1", c.q, got)
		}
	}
}

// TestHavingAroundAggregates evaluates HAVING conditions in which an
// aggregate sits under an operator other than AND, OR, NOT, a comparison or
// arithmetic. seededDB's projects 2–10 have 10 labels each, project 1 and the
// NULL group 5; each group's labels share one title.
func TestHavingAroundAggregates(t *testing.T) {
	db := seededDB(t)
	projects2to10 := []int64{2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		having string
		want   []int64 // project ids; -1 stands for the NULL group
	}{
		{"COUNT(*) IN (9, 10)", projects2to10},
		{"-COUNT(*) < -9", projects2to10},
		{"CASE WHEN COUNT(*) > 9 THEN 1 ELSE 0 END = 1", projects2to10},
		{"MAX(title) IS NOT NULL", []int64{-1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"MAX(title) LIKE 'f%'", []int64{2, 7}},
	} {
		t.Run(c.having, func(t *testing.T) {
			res := run(t, db, "SELECT project_id FROM labels GROUP BY project_id HAVING "+c.having)
			var got []int64
			for _, row := range res.Rows {
				if row[0].IsNull() {
					got = append(got, -1)
				} else {
					got = append(got, row[0].I)
				}
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("groups %v, want %v", got, c.want)
			}
		})
	}
}

// TestSubqueryNamesResolveInnermostFirst runs a name visible at two
// enclosing levels: the unqualified name inside the innermost EXISTS is
// q.name, the nearer level's, not p.name. In the second query q is the
// project after p, so the two readings return different bags.
func TestSubqueryNamesResolveInnermostFirst(t *testing.T) {
	db := NewDB(gitlabSchema())
	for i, name := range []string{"a", "b", "c", "d"} {
		db.MustInsert("projects", Row{sql.NewInt(int64(i + 1)), sql.NewString(name)})
	}
	for i, title := range []string{"b", "d"} {
		db.MustInsert("labels", Row{sql.NewInt(int64(i + 1)), sql.NewString(title), sql.Null})
	}
	for _, c := range []struct {
		join string
		want []Row
	}{
		{"q.id = p.id", []Row{{sql.NewInt(2)}, {sql.NewInt(4)}}},
		// q.name in (b, d) holds for p = 1, 3; p.name would give p = 2 only.
		{"q.id = p.id + 1", []Row{{sql.NewInt(1)}, {sql.NewInt(3)}}},
	} {
		t.Run(c.join, func(t *testing.T) {
			q := "SELECT p.id FROM projects p WHERE EXISTS (SELECT 1 FROM projects q WHERE " + c.join +
				" AND EXISTS (SELECT 1 FROM labels m WHERE m.title = name))"
			if res := run(t, db, q); !sameBag(res.Rows, c.want) {
				t.Errorf("rows %v, want %v", res.Rows, c.want)
			}
		})
	}
}

func TestNotInWithNulls(t *testing.T) {
	db := seededDB(t)
	// NOT IN over a set containing NULL yields no rows (three-valued logic).
	res := run(t, db, "SELECT id FROM labels WHERE id NOT IN (SELECT project_id FROM labels)")
	if len(res.Rows) != 0 {
		t.Fatalf("NOT IN with NULLs returned %d rows, want 0", len(res.Rows))
	}
}

func TestParams(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT id FROM labels WHERE project_id = ?", sql.NewInt(7))
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
}

func TestInsertEnforcesConstraints(t *testing.T) {
	db := NewDB(gitlabSchema())
	db.MustInsert("labels", Row{sql.NewInt(1), sql.NewString("a"), sql.NewInt(1)})
	if err := db.Insert("labels", Row{sql.NewInt(1), sql.NewString("b"), sql.NewInt(2)}); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	if err := db.Insert("labels", Row{sql.Null, sql.NewString("b"), sql.NewInt(2)}); err == nil {
		t.Fatal("NULL primary key accepted")
	}
	if err := db.Insert("labels", Row{sql.NewInt(2)}); err == nil {
		t.Fatal("short row accepted")
	}
}

func TestCostEstimatorPrefersSimplerPlans(t *testing.T) {
	db := seededDB(t)
	q0 := plan.MustBuild(sql.MustParse(
		"SELECT id FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10) AND id IN (SELECT id FROM labels WHERE project_id = 10)"), db.Schema)
	q1 := plan.MustBuild(sql.MustParse(
		"SELECT id FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10)"), db.Schema)
	q2 := plan.MustBuild(sql.MustParse(
		"SELECT id FROM labels WHERE project_id = 10"), db.Schema)
	c0, c1, c2 := db.EstimateCost(q0), db.EstimateCost(q1), db.EstimateCost(q2)
	if !(c2 < c1 && c1 < c0) {
		t.Fatalf("cost ordering wrong: q0=%v q1=%v q2=%v", c0, c1, c2)
	}
}

func TestCostIndexBeatsScan(t *testing.T) {
	db := seededDB(t)
	indexed := plan.MustBuild(sql.MustParse("SELECT title FROM labels WHERE id = 5"), db.Schema)
	scan := plan.MustBuild(sql.MustParse("SELECT title FROM labels WHERE title = 'bug'"), db.Schema)
	if db.EstimateCost(indexed) >= db.EstimateCost(scan) {
		t.Fatal("indexed point query should be cheaper than a scan")
	}
}

func TestExecEquivalenceOriginalVsRewritten(t *testing.T) {
	// The Table 1 q0/q2 pair must produce identical result multisets.
	db := seededDB(t)
	orig := run(t, db, `SELECT * FROM labels WHERE id IN (
	        SELECT id FROM labels WHERE id IN (
	          SELECT id FROM labels WHERE project_id = 10) ORDER BY title ASC)`)
	rewritten := run(t, db, "SELECT * FROM labels WHERE project_id = 10")
	if !sameBag(orig.Rows, rewritten.Rows) {
		t.Fatal("q0 and q2 disagree")
	}
	if len(orig.Rows) == 0 {
		t.Fatal("empty result, test is vacuous")
	}
}

func TestDerivedTableExecution(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT d.id FROM (SELECT id FROM labels WHERE project_id = 2) AS d WHERE d.id > 50")
	for _, row := range res.Rows {
		if row[0].I <= 50 {
			t.Fatalf("filter on derived table failed: %v", row)
		}
	}
}
