package verify

import (
	"testing"

	"wetune/internal/plan"
	"wetune/internal/sql"
)

func absSchema() *sql.Schema {
	s := sql.NewSchema()
	s.AddTable(&sql.TableDef{
		Name: "emp",
		Columns: []sql.Column{
			{Name: "id", Type: sql.TInt, NotNull: true},
			{Name: "dept", Type: sql.TInt},
			{Name: "salary", Type: sql.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	return s
}

func absPlan(t *testing.T, q string) plan.Node {
	t.Helper()
	p, err := plan.BuildSQL(q, absSchema())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifyPlanPairConjunctOrder(t *testing.T) {
	a := absPlan(t, "SELECT id FROM emp WHERE dept = 1 AND salary = 2")
	b := absPlan(t, "SELECT id FROM emp WHERE salary = 2 AND dept = 1")
	rep := VerifyPlanPair(a, b, absSchema())
	if rep.Outcome != Verified {
		t.Fatalf("conjunct reorder: %v (%s)", rep.Outcome, rep.Detail)
	}
}

func TestVerifyPlanPairDistinctPK(t *testing.T) {
	a := absPlan(t, "SELECT DISTINCT id FROM emp")
	b := absPlan(t, "SELECT id FROM emp")
	rep := VerifyPlanPair(a, b, absSchema())
	if rep.Outcome != Verified {
		t.Fatalf("distinct-pk: %v (%s)", rep.Outcome, rep.Detail)
	}
}

func TestVerifyPlanPairRejectsWrong(t *testing.T) {
	a := absPlan(t, "SELECT id FROM emp WHERE dept = 1")
	b := absPlan(t, "SELECT id FROM emp WHERE dept = 2")
	rep := VerifyPlanPair(a, b, absSchema())
	if rep.Outcome == Verified {
		t.Fatal("different constants verified")
	}
	// DISTINCT on non-unique column is not removable.
	c := absPlan(t, "SELECT DISTINCT dept FROM emp")
	d := absPlan(t, "SELECT dept FROM emp")
	if rep := VerifyPlanPair(c, d, absSchema()); rep.Outcome == Verified {
		t.Fatal("distinct on non-key verified")
	}
}

func TestVerifyPlanPairSelfInSub(t *testing.T) {
	a := absPlan(t, "SELECT * FROM emp WHERE id IN (SELECT id FROM emp)")
	b := absPlan(t, "SELECT * FROM emp")
	rep := VerifyPlanPair(a, b, absSchema())
	if rep.Outcome != Verified {
		t.Fatalf("self IN-subquery: %v (%s)", rep.Outcome, rep.Detail)
	}
}

// TestVerifyPlanPairLiteralsWithDots: the predicate key used to be built by
// scanning the printed text and stripping "the identifier before any dot", so
// `sal > 1.5` and `sal > 2.5` both became `sal > 5` (and 'a.x', 'b.x' both
// '.x'), PredEq was asserted between them and the pair verified. The key now
// drops qualifiers structurally: only aliases may differ.
func TestVerifyPlanPairLiteralsWithDots(t *testing.T) {
	schema := sql.NewSchema()
	schema.AddTable(&sql.TableDef{
		Name: "emp",
		Columns: []sql.Column{
			{Name: "id", Type: sql.TInt, NotNull: true},
			{Name: "sal", Type: sql.TFloat},
			{Name: "name", Type: sql.TString},
		},
		PrimaryKey: []string{"id"},
	})
	for _, c := range []struct {
		a, b string
		want Outcome
	}{
		{"SELECT id FROM emp WHERE sal > 1.5", "SELECT id FROM emp WHERE sal > 2.5", Rejected},
		{"SELECT id FROM emp WHERE name = 'a.x'", "SELECT id FROM emp WHERE name = 'b.x'", Rejected},
		{"SELECT id FROM emp WHERE sal > 1", "SELECT id FROM emp WHERE sal > 2", Rejected},
		{"SELECT e.id FROM emp AS e WHERE e.sal > 1.5", "SELECT f.id FROM emp AS f WHERE f.sal > 1.5", Verified},
		{"SELECT e.id FROM emp AS e WHERE CASE WHEN e.sal > 1.5 THEN 1 ELSE 0 END = 1",
			"SELECT f.id FROM emp AS f WHERE CASE WHEN f.sal > 1.5 THEN 1 ELSE 0 END = 1", Verified},
	} {
		pa, err := plan.BuildSQL(c.a, schema)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := plan.BuildSQL(c.b, schema)
		if err != nil {
			t.Fatal(err)
		}
		if rep := VerifyPlanPair(pa, pb, schema); rep.Outcome != c.want {
			t.Errorf("%s\n  vs %s\n  %v (%s), want %v", c.a, c.b, rep.Outcome, rep.Detail, c.want)
		}
	}
}
