package engine

import (
	"testing"

	"wetune/internal/plan"
	"wetune/internal/sql"
)

func TestLikeMatching(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT DISTINCT title FROM labels WHERE title LIKE 'b%'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "bug" {
		t.Fatalf("LIKE 'b%%' rows = %v", res.Rows)
	}
	res = run(t, db, "SELECT DISTINCT title FROM labels WHERE title LIKE '_ug'")
	if len(res.Rows) != 1 {
		t.Fatalf("LIKE '_ug' rows = %d", len(res.Rows))
	}
	// Titles cycle [bug feature chore bug docs] by id%5; 'bug' and 'feature'
	// contain a 'u'.
	res = run(t, db, "SELECT id FROM labels WHERE title NOT LIKE '%u%' AND id < 6")
	for _, row := range res.Rows {
		switch row[0].I % 5 {
		case 0, 1, 3:
			t.Fatalf("NOT LIKE kept a row containing 'u': %v", row)
		}
	}
}

func TestCaseExpression(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT CASE WHEN id < 3 THEN 'low' ELSE 'high' END AS bucket FROM labels WHERE id <= 4 ORDER BY id ASC")
	want := []string{"low", "low", "high", "high"}
	for i, row := range res.Rows {
		if row[0].S != want[i] {
			t.Fatalf("case row %d = %v, want %s", i, row[0], want[i])
		}
	}
}

func TestArithmeticInProjection(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT id + 100, id * 2, id - 1, id / 2 FROM labels WHERE id = 8")
	row := res.Rows[0]
	if row[0].I != 108 || row[1].I != 16 || row[2].I != 7 {
		t.Fatalf("arith = %v", row)
	}
	if row[3].F != 4 {
		t.Fatalf("division = %v (integer division yields float)", row[3])
	}
}

func TestScalarSubqueryInPredicate(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT id FROM labels WHERE id = (SELECT MIN(id) FROM labels)")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("scalar subquery rows = %v", res.Rows)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT labels.id FROM labels, projects WHERE labels.id = 1")
	if len(res.Rows) != 10 {
		t.Fatalf("cross join rows = %d, want 10", len(res.Rows))
	}
}

func TestNonEquiJoinNestedLoop(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT labels.id FROM labels INNER JOIN projects ON labels.id < projects.id WHERE labels.id = 9")
	// projects ids 1..10; labels.id 9 < 10 only.
	if len(res.Rows) != 1 {
		t.Fatalf("non-equi join rows = %d, want 1", len(res.Rows))
	}
}

func TestRightJoinNestedLoopUnmatched(t *testing.T) {
	db := NewDB(gitlabSchema())
	db.MustInsert("projects", Row{sql.NewInt(1), sql.NewString("p")})
	db.MustInsert("projects", Row{sql.NewInt(2), sql.NewString("q")})
	db.MustInsert("labels", Row{sql.NewInt(1), sql.NewString("a"), sql.NewInt(1)})
	// Non-equi ON forces the nested-loop path.
	res := run(t, db, "SELECT projects.name FROM labels RIGHT JOIN projects ON labels.project_id > projects.id")
	// project 1: no label with project_id > 1 -> padded; project 2: none -> padded.
	if len(res.Rows) != 2 {
		t.Fatalf("right join rows = %d, want 2 (all padded)", len(res.Rows))
	}
}

func TestGroupedMinMaxDistinctCount(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT project_id, COUNT(DISTINCT title), MIN(id), MAX(id) FROM labels WHERE project_id = 2 GROUP BY project_id")
	if len(res.Rows) != 1 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row[1].I < 1 || row[2].I >= row[3].I {
		t.Fatalf("aggregates wrong: %v", row)
	}
}

func TestEmptyGroupAggregates(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT COUNT(*), SUM(id), MIN(id) FROM labels WHERE id > 10000")
	row := res.Rows[0]
	if row[0].I != 0 || !row[1].IsNull() || !row[2].IsNull() {
		t.Fatalf("empty aggregates = %v", row)
	}
}

func TestEstimateRows(t *testing.T) {
	db := seededDB(t)
	all := plan.MustBuild(sql.MustParse("SELECT * FROM labels"), db.Schema)
	some := plan.MustBuild(sql.MustParse("SELECT * FROM labels WHERE id = 1"), db.Schema)
	if db.EstimateRows(all) <= db.EstimateRows(some) {
		t.Fatal("filtered cardinality should be lower")
	}
}

func TestExecErrors(t *testing.T) {
	db := seededDB(t)
	// Missing parameter.
	p := plan.MustBuild(sql.MustParse("SELECT * FROM labels WHERE id = ?"), db.Schema)
	if _, err := db.Execute(p, nil); err == nil {
		t.Fatal("missing parameter accepted")
	}
	// Unknown table at runtime.
	bad := &plan.Scan{Table: "missing", Binding: "missing"}
	if _, err := db.Execute(bad, nil); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestCreateIndexErrors(t *testing.T) {
	db := seededDB(t)
	if err := db.CreateIndex("missing", []string{"id"}); err == nil {
		t.Fatal("index on missing table accepted")
	}
	if err := db.CreateIndex("labels", []string{"nope"}); err == nil {
		t.Fatal("index on missing column accepted")
	}
	// Index created after rows exist serves lookups.
	if err := db.CreateIndex("labels", []string{"project_id"}); err != nil {
		t.Fatal(err)
	}
	before := db.Stats.IndexLookups
	res := run(t, db, "SELECT id FROM labels WHERE project_id = 4")
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if db.Stats.IndexLookups == before {
		t.Fatal("secondary index not used")
	}
}

// TestMixedIntFloatKeys checks that the keys the engine builds from values
// agree with Equal, under which Int 2 and Float 2.0 are one value: an index
// lookup with a float finds the int rows a scan finds, and UNION and DISTINCT
// merge an int with the equal float.
func TestMixedIntFloatKeys(t *testing.T) {
	db := seededDB(t)
	ids := func(q string) []int64 {
		var out []int64
		for _, row := range run(t, db, q).Rows {
			out = append(out, row[0].I)
		}
		return out
	}
	before := db.Stats.IndexLookups
	want := ids("SELECT id FROM labels WHERE id + 0 = 2") // not index-served
	if len(want) != 1 || want[0] != 2 {
		t.Fatalf("scan rows = %v, want [2]", want)
	}
	if db.Stats.IndexLookups != before {
		t.Fatal("scan predicate was served by the index")
	}
	for _, q := range []string{
		"SELECT id FROM labels WHERE id = 2.0",
		"SELECT id FROM labels WHERE 2.0 = id",
		"SELECT id FROM labels WHERE id = 4/2",
	} {
		if got := ids(q); len(got) != 1 || got[0] != want[0] {
			t.Errorf("%s: rows = %v, want %v", q, got, want)
		}
	}
	if db.Stats.IndexLookups == before {
		t.Fatal("float equality on an indexed column was not index-served")
	}
	q := "SELECT id FROM labels WHERE id = 2 UNION SELECT id / 1 FROM labels WHERE id = 2"
	if n := len(run(t, db, q).Rows); n != 1 {
		t.Errorf("%s: %d rows, want 1", q, n)
	}
}

func TestUnionAllKeepsDuplicatesAcrossArms(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT title FROM labels WHERE id = 1 UNION ALL SELECT title FROM labels WHERE id = 6")
	if len(res.Rows) != 2 {
		t.Fatalf("union all rows = %d", len(res.Rows))
	}
}

func TestInListPredicate(t *testing.T) {
	db := seededDB(t)
	res := run(t, db, "SELECT id FROM labels WHERE id IN (1, 2, 3)")
	if len(res.Rows) != 3 {
		t.Fatalf("IN list rows = %d", len(res.Rows))
	}
	res = run(t, db, "SELECT id FROM labels WHERE id NOT IN (1, 2, 3) AND id <= 5")
	if len(res.Rows) != 2 {
		t.Fatalf("NOT IN rows = %d", len(res.Rows))
	}
}
