package engine_test

import (
	"math/rand"
	"testing"

	"wetune/internal/difftest"
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/sql"
)

// groupEqual is SQL's grouping equality over rows: NULL groups with NULL,
// everything else as Value.Equal has it.
func groupEqual(a, b engine.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() || !a[i].IsNull() && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestRowKeyIsInjective: over generated rows whose strings contain the
// separator, quotes and nothing at all, and with NULLs, ints and floats
// mixed, two rows share a key exactly when they are equal under grouping
// equality.
func TestRowKeyIsInjective(t *testing.T) {
	values := []sql.Value{
		sql.Null, sql.NewInt(1), sql.NewInt(-1), sql.NewInt(1000000), sql.NewFloat(1), sql.NewFloat(1e6),
		sql.NewFloat(1.5), sql.NewBool(true), sql.NewString(""), sql.NewString("|"), sql.NewString("'"),
		sql.NewString("''"), sql.NewString("x'|'y"), sql.NewString("x"), sql.NewString("y'|'z"), sql.NewString("z"),
		sql.NewString("1"), sql.NewString("NULL"), sql.NewString("TRUE"), sql.NewString("'|"), sql.NewString("|'"),
	}
	rng := rand.New(rand.NewSource(1))
	var rows []engine.Row
	for i := 0; i < 400; i++ {
		row := make(engine.Row, 1+rng.Intn(3))
		for j := range row {
			row[j] = values[rng.Intn(len(values))]
		}
		rows = append(rows, row)
	}
	for _, a := range rows {
		for _, b := range rows {
			if same := a.Key(nil) == b.Key(nil); same != groupEqual(a, b) {
				t.Fatalf("rows %v and %v: keys %q and %q, grouping-equal %v", a, b, a.Key(nil), b.Key(nil), !same)
			}
		}
	}
}

// TestRowKeyKeepsQuotedSeparatorsApart pins the rows ('x”|”y', 'z') and
// ('x', 'y”|”z'), which shared a key when strings were written unescaped,
// on every path that keys rows: DISTINCT, GROUP BY, UNION, a two-column IN,
// a hash join on two columns and difftest's bag comparison.
func TestRowKeyKeepsQuotedSeparatorsApart(t *testing.T) {
	schema := sql.MustParseDDL(`
CREATE TABLE t (id INT PRIMARY KEY, a VARCHAR(10), b VARCHAR(10));
CREATE TABLE s (id INT PRIMARY KEY, a VARCHAR(10), b VARCHAR(10));`)
	db := engine.NewDB(schema)
	r1 := engine.Row{sql.NewInt(1), sql.NewString("x'|'y"), sql.NewString("z")}
	r2 := engine.Row{sql.NewInt(2), sql.NewString("x"), sql.NewString("y'|'z")}
	db.MustInsert("t", r1)
	db.MustInsert("t", r2)
	db.MustInsert("s", engine.Row{sql.NewInt(2), r2[1], r2[2]})
	for _, c := range []struct {
		query string
		rows  int
	}{
		{`SELECT DISTINCT a, b FROM t`, 2},
		{`SELECT a, b, COUNT(*) FROM t GROUP BY a, b`, 2},
		{`SELECT a, b FROM t WHERE id = 1 UNION SELECT a, b FROM s`, 2},
		{`SELECT id FROM t WHERE (a, b) IN (SELECT a, b FROM s)`, 1},
		{`SELECT t.id FROM t INNER JOIN s ON t.a = s.a AND t.b = s.b`, 1},
	} {
		p, err := plan.BuildSQL(c.query, schema)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		res, err := db.Execute(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if len(res.Rows) != c.rows {
			t.Errorf("%s: %d rows %v, want %d", c.query, len(res.Rows), res.Rows, c.rows)
		}
	}
	if difftest.BagEqual([]engine.Row{r1[1:]}, []engine.Row{r2[1:]}) {
		t.Error("BagEqual: the two rows compare equal")
	}
}

// TestRejectedInsertLeavesIndexesUnchanged: an insert that a unique index
// refuses must not leave an entry in another index. Twenty rejected inserts
// of (2, 'dup') give each order of visiting the two indexes its chance.
func TestRejectedInsertLeavesIndexesUnchanged(t *testing.T) {
	schema := sql.MustParseDDL(`CREATE TABLE t (id INT PRIMARY KEY, u VARCHAR(10) UNIQUE);`)
	db := engine.NewDB(schema)
	db.MustInsert("t", engine.Row{sql.NewInt(1), sql.NewString("dup")})
	for i := 0; i < 20; i++ {
		if err := db.Insert("t", engine.Row{sql.NewInt(2), sql.NewString("dup")}); err == nil {
			t.Fatal("a duplicate of u was accepted")
		}
	}
	db.MustInsert("t", engine.Row{sql.NewInt(3), sql.NewString("three")})
	query := func() int {
		p, err := plan.BuildSQL(`SELECT t.id, t.u FROM t WHERE t.id = 2`, schema)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Execute(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	if n := query(); n != 0 {
		t.Fatalf("WHERE t.id = 2 after rejected inserts: %d rows, want 0", n)
	}
	if err := db.Insert("t", engine.Row{sql.NewInt(2), sql.NewString("two")}); err != nil {
		t.Fatalf("a valid insert of id 2: %v", err)
	}
	if n := query(); n != 1 {
		t.Fatalf("WHERE t.id = 2 after inserting it: %d rows, want 1", n)
	}
}
