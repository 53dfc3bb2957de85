package plan

import (
	"strings"
	"testing"

	"wetune/internal/sql"
)

// testSchema builds the GitLab-flavored schema used throughout the paper's
// motivating examples.
func testSchema() *sql.Schema {
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
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

func build(t testing.TB, q string) Node {
	t.Helper()
	n, err := BuildSQL(q, testSchema())
	if err != nil {
		t.Fatalf("BuildSQL(%q): %v", q, err)
	}
	return n
}

func TestBuildSimpleSelect(t *testing.T) {
	n := build(t, "SELECT id FROM labels WHERE project_id = 10")
	proj, ok := n.(*Proj)
	if !ok {
		t.Fatalf("root = %T, want Proj", n)
	}
	sel, ok := proj.In.(*Sel)
	if !ok {
		t.Fatalf("child = %T, want Sel", proj.In)
	}
	if _, ok := sel.In.(*Scan); !ok {
		t.Fatalf("grandchild = %T, want Scan", sel.In)
	}
}

// TestBuildRefusesOverMaxNodes: a WHERE of MaxNodes conjuncts lowers to
// MaxNodes Sel operators; one more conjunct is an error.
func TestBuildRefusesOverMaxNodes(t *testing.T) {
	where := func(n int) string {
		return "SELECT * FROM labels WHERE " + strings.TrimSuffix(strings.Repeat("id = 1 AND ", n), " AND ")
	}
	if n := build(t, where(MaxNodes)); Size(n) != MaxNodes {
		t.Fatalf("Size = %d, want %d", Size(n), MaxNodes)
	}
	if _, err := BuildSQL(where(MaxNodes+1), testSchema()); err == nil || !strings.Contains(err.Error(), "more than the 192") {
		t.Fatalf("err = %v, want the operator limit", err)
	}
}

func TestBuildStarOmitsProj(t *testing.T) {
	n := build(t, "SELECT * FROM labels WHERE project_id = 10")
	if _, ok := n.(*Sel); !ok {
		t.Fatalf("root = %T, want Sel (star should not project)", n)
	}
}

func TestBuildInSubquery(t *testing.T) {
	n := build(t, "SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)")
	proj := n.(*Proj)
	in, ok := proj.In.(*InSub)
	if !ok {
		t.Fatalf("expected InSub above Sel, got %T", proj.In)
	}
	if len(in.Cols) != 1 || in.Cols[0] != (ColRef{Table: "notes", Column: "id"}) {
		t.Fatalf("InSub cols = %v", in.Cols)
	}
	if _, ok := in.In.(*Sel); !ok {
		t.Fatalf("InSub left = %T, want Sel", in.In)
	}
	if _, ok := in.Sub.(*Proj); !ok {
		t.Fatalf("InSub right = %T, want Proj", in.Sub)
	}
}

func TestBuildNestedInSub(t *testing.T) {
	// Table 1 q0.
	q := `SELECT * FROM labels WHERE id IN (
	        SELECT id FROM labels WHERE id IN (
	          SELECT id FROM labels WHERE project_id = 10
	        ) ORDER BY title ASC)`
	n := build(t, q)
	outer, ok := n.(*InSub)
	if !ok {
		t.Fatalf("root = %T, want InSub", n)
	}
	// Subquery: Proj(Sort(InSub(...))) — the ORDER BY key (title) is not in
	// the projection, so the sort sits below it.
	proj, ok := outer.Sub.(*Proj)
	if !ok {
		t.Fatalf("subquery root = %T, want Proj", outer.Sub)
	}
	if _, ok := proj.In.(*Sort); !ok {
		t.Fatalf("below subquery Proj = %T, want Sort (ORDER BY kept until eliminated)", proj.In)
	}
}

func TestBuildCorrelatedSubqueryStaysPredicate(t *testing.T) {
	n := build(t, "SELECT * FROM issues WHERE id IN (SELECT id FROM labels WHERE labels.project_id = issues.project_id)")
	if _, ok := n.(*Sel); !ok {
		t.Fatalf("correlated IN should stay a Sel predicate, got %T", n)
	}
}

func TestBuildNegatedInStaysPredicate(t *testing.T) {
	n := build(t, "SELECT * FROM labels WHERE id NOT IN (SELECT id FROM labels WHERE project_id = 1)")
	if _, ok := n.(*Sel); !ok {
		t.Fatalf("NOT IN should stay a Sel predicate, got %T", n)
	}
}

func TestBuildJoinEquiCols(t *testing.T) {
	n := build(t, "SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id")
	proj := n.(*Proj)
	join := proj.In.(*Join)
	l, r, ok := join.EquiCols()
	if !ok {
		t.Fatal("EquiCols failed on simple equi join")
	}
	if l[0] != (ColRef{Table: "issues", Column: "project_id"}) || r[0] != (ColRef{Table: "projects", Column: "id"}) {
		t.Fatalf("equi cols = %v, %v", l, r)
	}
}

func TestBuildJoinEquiColsReversed(t *testing.T) {
	n := build(t, "SELECT * FROM issues INNER JOIN projects ON projects.id = issues.project_id")
	join := n.(*Join)
	l, r, ok := join.EquiCols()
	if !ok || l[0].Table != "issues" || r[0].Table != "projects" {
		t.Fatalf("reversed equi cols = %v, %v, %v", l, r, ok)
	}
}

func TestBuildAgg(t *testing.T) {
	n := build(t, "SELECT project_id, COUNT(*) AS n FROM issues GROUP BY project_id HAVING COUNT(*) > 3")
	agg, ok := n.(*Agg)
	if !ok {
		t.Fatalf("root = %T, want Agg", n)
	}
	if len(agg.GroupBy) != 1 || agg.GroupBy[0].Column != "project_id" {
		t.Fatalf("group by = %v", agg.GroupBy)
	}
	if len(agg.Items) != 1 || agg.Items[0].Func != "COUNT" || !agg.Items[0].Star {
		t.Fatalf("agg items = %#v", agg.Items)
	}
	if agg.Having == nil {
		t.Fatal("missing HAVING")
	}
}

func TestBuildDistinct(t *testing.T) {
	n := build(t, "SELECT DISTINCT title FROM labels")
	if _, ok := n.(*Dedup); !ok {
		t.Fatalf("root = %T, want Dedup", n)
	}
}

func TestBuildUnion(t *testing.T) {
	n := build(t, "SELECT id FROM labels UNION SELECT id FROM notes")
	u, ok := n.(*Union)
	if !ok {
		t.Fatalf("root = %T, want Union", n)
	}
	if u.All {
		t.Error("UNION should not be ALL")
	}
}

func TestBuildDerivedTable(t *testing.T) {
	n := build(t, "SELECT d.id FROM (SELECT id FROM labels WHERE project_id = 1) AS d WHERE d.id > 5")
	proj := n.(*Proj)
	sel := proj.In.(*Sel)
	if _, ok := sel.In.(*Derived); !ok {
		t.Fatalf("expected Derived, got %T", sel.In)
	}
}

func TestBuildErrors(t *testing.T) {
	schema := testSchema()
	bad := []string{
		"SELECT * FROM missing_table",
		"SELECT nonexistent FROM labels",
		"SELECT id FROM labels WHERE bogus = 1",
		"SELECT l1.id FROM labels AS l1, labels AS l2 WHERE id = 3", // ambiguous id
	}
	for _, q := range bad {
		if _, err := BuildSQL(q, schema); err == nil {
			t.Errorf("BuildSQL(%q) succeeded, want error", q)
		}
	}
}

func TestOpCountsAndSize(t *testing.T) {
	n := build(t, "SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)")
	counts := OpCounts(n)
	if counts[KProj] != 2 || counts[KSel] != 2 || counts[KInSub] != 1 || counts[KScan] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if got := Size(n); got != 5 {
		t.Fatalf("Size = %d, want 5", got)
	}
}

func TestNotMoreOpsThan(t *testing.T) {
	small := build(t, "SELECT id FROM notes WHERE type = 'D'")
	big := build(t, "SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)")
	if !NotMoreOpsThan(small, big) {
		t.Error("small should have no more ops than big")
	}
	if NotMoreOpsThan(big, small) {
		t.Error("big should have more ops than small")
	}
}

func TestFingerprintEquality(t *testing.T) {
	a := build(t, "SELECT id FROM labels WHERE project_id = 10")
	b := build(t, "SELECT id FROM labels WHERE project_id = 10")
	c := build(t, "SELECT id FROM labels WHERE project_id = 11")
	if !Equal(a, b) {
		t.Error("identical plans not equal")
	}
	if Equal(a, c) {
		t.Error("different plans equal")
	}
}

func TestToSQLRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT id FROM labels WHERE project_id = 10",
		"SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10)",
		"SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id",
		"SELECT DISTINCT title FROM labels",
		"SELECT project_id, COUNT(*) AS n FROM issues GROUP BY project_id",
		"SELECT id FROM labels UNION SELECT id FROM notes",
		"SELECT id FROM labels ORDER BY id DESC LIMIT 3",
		"SELECT * FROM issues LEFT JOIN projects ON issues.project_id = projects.id",
	}
	schema := testSchema()
	for _, q := range queries {
		n1, err := BuildSQL(q, schema)
		if err != nil {
			t.Fatalf("build %q: %v", q, err)
		}
		out := ToSQLString(n1)
		n2, err := BuildSQL(out, schema)
		if err != nil {
			t.Fatalf("rebuild %q (from %q): %v", out, q, err)
		}
		if Fingerprint(n1) != Fingerprint(n2) {
			t.Errorf("plan->sql->plan changed:\n  orig: %s\n  out:  %s\n  fp1: %s\n  fp2: %s",
				q, out, Fingerprint(n1), Fingerprint(n2))
		}
	}
}

func TestOrigin(t *testing.T) {
	n := build(t, "SELECT id FROM labels WHERE project_id = 10")
	tbl, col, ok := Origin(n, ColRef{Table: "labels", Column: "id"})
	if !ok || tbl != "labels" || col != "id" {
		t.Fatalf("Origin = %s.%s ok=%v", tbl, col, ok)
	}
	// Through an alias.
	n2 := build(t, "SELECT n.id FROM notes AS n WHERE n.type = 'x'")
	tbl, col, ok = Origin(n2, ColRef{Table: "n", Column: "id"})
	if !ok || tbl != "notes" || col != "id" {
		t.Fatalf("aliased Origin = %s.%s ok=%v", tbl, col, ok)
	}
}

func TestUniqueOn(t *testing.T) {
	schema := testSchema()
	n := MustBuild(sql.MustParse("SELECT id FROM labels WHERE project_id = 10"), schema)
	if !UniqueOn(n, []ColRef{{Table: "labels", Column: "id"}}, schema) {
		t.Error("pk column should be unique through Sel/Proj")
	}
	if UniqueOn(n, []ColRef{{Table: "labels", Column: "project_id"}}, schema) {
		t.Error("non-key column reported unique")
	}
	d := MustBuild(sql.MustParse("SELECT DISTINCT title FROM labels"), schema)
	if !UniqueOn(d, d.OutCols(), schema) {
		t.Error("Dedup output should be unique on all columns")
	}
}

func TestNotNullOn(t *testing.T) {
	schema := testSchema()
	n := MustBuild(sql.MustParse("SELECT id, title FROM labels"), schema)
	if !NotNullOn(n, []ColRef{{Table: "labels", Column: "id"}}, schema) {
		t.Error("pk should be not-null")
	}
	if NotNullOn(n, []ColRef{{Table: "labels", Column: "title"}}, schema) {
		t.Error("nullable column reported not-null")
	}
	// An equality filter implies not-null.
	f := MustBuild(sql.MustParse("SELECT title FROM labels WHERE title = 'x'"), schema)
	if !NotNullOn(f, []ColRef{{Table: "labels", Column: "title"}}, schema) {
		t.Error("filtered column should be not-null")
	}
	// Left-join padded side is nullable.
	lj := MustBuild(sql.MustParse("SELECT * FROM issues LEFT JOIN projects ON issues.project_id = projects.id"), schema)
	if NotNullOn(lj, []ColRef{{Table: "projects", Column: "id"}}, schema) {
		t.Error("left-join right side should be nullable")
	}
	if !NotNullOn(lj, []ColRef{{Table: "issues", Column: "id"}}, schema) {
		t.Error("left-join left pk should stay not-null")
	}
}

func TestRefHolds(t *testing.T) {
	schema := testSchema()
	issues := MustBuild(sql.MustParse("SELECT * FROM issues WHERE title = 'x'"), schema)
	projects := MustBuild(sql.MustParse("SELECT * FROM projects"), schema)
	if !RefHolds(issues,
		[]ColRef{{Table: "issues", Column: "project_id"}},
		projects,
		[]ColRef{{Table: "projects", Column: "id"}}, schema) {
		t.Error("declared FK not detected")
	}
	// Same table, same column: subset containment.
	filtered := MustBuild(sql.MustParse("SELECT id FROM notes WHERE commit_id = 7"), schema)
	full := MustBuild(sql.MustParse("SELECT id FROM notes"), schema)
	if !RefHolds(filtered,
		[]ColRef{{Table: "notes", Column: "id"}},
		full,
		[]ColRef{{Table: "notes", Column: "id"}}, schema) {
		t.Error("same-table containment not detected")
	}
	// Filtered right side breaks containment.
	if RefHolds(full,
		[]ColRef{{Table: "notes", Column: "id"}},
		filtered,
		[]ColRef{{Table: "notes", Column: "id"}}, schema) {
		t.Error("containment into filtered subset accepted")
	}
}

func TestBaseTables(t *testing.T) {
	n := build(t, "SELECT id FROM notes WHERE id IN (SELECT id FROM notes WHERE commit_id = 7)")
	got := BaseTables(n)
	if len(got) != 2 || got[0] != "notes" || got[1] != "notes" {
		t.Fatalf("BaseTables = %v", got)
	}
}

// TestToSQLWrapsConflictingSlots pins the text of derived tables the printer
// makes: an operator over a SELECT that already has a later clause, join
// inputs that are not tables, repeated names of a self-join aliased apart,
// UNION arms with their own LIMIT, and the numbering (inner before outer,
// outer input before subquery).
func TestToSQLWrapsConflictingSlots(t *testing.T) {
	b := func(q string) Node { return build(t, q) }
	sel := func(pred string, in Node) Node {
		return &Sel{Pred: sql.MustParse("SELECT * FROM t WHERE " + pred).Where, In: in}
	}
	selfJoin := b("SELECT DISTINCT * FROM labels AS a INNER JOIN labels AS b ON a.id = b.project_id")
	for _, c := range []struct {
		plan Node
		want string
	}{
		{sel("labels.id > 5", b("SELECT id FROM labels")),
			"SELECT * FROM (SELECT labels.id FROM labels) AS q1 WHERE q1.id > 5"},
		{b("SELECT title FROM labels ORDER BY id DESC"),
			"SELECT q1.title FROM (SELECT * FROM labels ORDER BY id DESC) AS q1"},
		{sel("a.title = 'x'", selfJoin),
			"SELECT * FROM (SELECT DISTINCT a.id, a.title, a.project_id, b.id AS id_2, b.title AS title_2, b.project_id AS project_id_2" +
				" FROM labels AS a INNER JOIN labels AS b ON a.id = b.project_id) AS q1 WHERE q1.title = 'x'"},
		{&Join{JoinKind: sql.LeftJoin, On: sql.MustParse("SELECT * FROM t WHERE x.id = labels.project_id").Where,
			L: &Limit{N: 3, In: b("SELECT * FROM labels AS x WHERE x.id > 1")},
			R: b("SELECT DISTINCT project_id FROM labels")},
			"SELECT * FROM (SELECT * FROM labels AS x WHERE x.id > 1 LIMIT 3) AS q1 LEFT JOIN (SELECT DISTINCT labels.project_id FROM labels) AS q2" +
				" ON q1.id = q2.project_id"},
		{&Limit{N: 5, In: &Union{L: b("SELECT id FROM labels ORDER BY id LIMIT 2"), R: b("SELECT id FROM labels UNION ALL SELECT id FROM projects")}},
			"(SELECT labels.id FROM labels ORDER BY labels.id ASC LIMIT 2) UNION (SELECT labels.id FROM labels UNION ALL SELECT projects.id FROM projects) LIMIT 5"},
		{&InSub{Cols: []ColRef{{Table: "labels", Column: "id"}}, In: &Limit{N: 1, In: b("SELECT * FROM labels ORDER BY id")},
			Sub: b("SELECT project_id FROM labels ORDER BY title LIMIT 4")},
			"SELECT * FROM (SELECT * FROM labels ORDER BY labels.id ASC LIMIT 1) AS q1 WHERE q1.id IN" +
				" (SELECT q2.project_id FROM (SELECT * FROM labels ORDER BY title ASC) AS q2 LIMIT 4)"},
	} {
		if got := ToSQLString(c.plan); got != c.want {
			t.Errorf("ToSQLString(%s)\n got %s\nwant %s", Fingerprint(c.plan), got, c.want)
		}
	}
}
