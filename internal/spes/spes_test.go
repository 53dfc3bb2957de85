package spes

import (
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/template"
)

func r(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
func a(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
func p(id int) template.Sym { return template.Sym{Kind: template.KPred, ID: id} }

func calciteSchema() *sql.Schema {
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
	s.AddTable(&sql.TableDef{
		Name: "dept",
		Columns: []sql.Column{
			{Name: "id", Type: sql.TInt, NotNull: true},
			{Name: "name", Type: sql.TString},
		},
		PrimaryKey: []string{"id"},
	})
	return s
}

func mustPlan(t *testing.T, q string) plan.Node {
	t.Helper()
	n, err := plan.BuildSQL(q, calciteSchema())
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return n
}

func TestVerifyPlansSelectionMerge(t *testing.T) {
	a1 := mustPlan(t, "SELECT * FROM emp WHERE dept = 1 AND salary > 10")
	b1 := mustPlan(t, "SELECT * FROM emp WHERE salary > 10 AND dept = 1")
	ok, reason := VerifyPlans(a1, b1)
	if !ok {
		t.Fatalf("conjunct reorder should verify: %s", reason)
	}
}

func TestVerifyPlansIdempotentSelection(t *testing.T) {
	a1 := mustPlan(t, "SELECT * FROM emp WHERE dept = 1 AND dept = 1")
	b1 := mustPlan(t, "SELECT * FROM emp WHERE dept = 1")
	ok, reason := VerifyPlans(a1, b1)
	if !ok {
		t.Fatalf("duplicate conjunct should verify: %s", reason)
	}
}

func TestVerifyPlansJoinCommute(t *testing.T) {
	a1 := mustPlan(t, "SELECT emp.id FROM emp INNER JOIN dept ON emp.dept = dept.id")
	b1 := mustPlan(t, "SELECT emp.id FROM dept INNER JOIN emp ON emp.dept = dept.id")
	ok, reason := VerifyPlans(a1, b1)
	if !ok {
		t.Fatalf("join commute should verify: %s", reason)
	}
}

func TestVerifyPlansSelectPushdown(t *testing.T) {
	a1 := mustPlan(t, "SELECT emp.id FROM emp INNER JOIN dept ON emp.dept = dept.id WHERE emp.salary > 5")
	b1 := mustPlan(t, "SELECT emp.id FROM (SELECT * FROM emp WHERE salary > 5) AS emp INNER JOIN dept ON emp.dept = dept.id")
	// Note: the derived-table variant renames nothing (alias emp), so the
	// canonical forms should match after interior projection removal and
	// selection hoisting; SPES-style normalization is structural, so this
	// particular pair may or may not prove — the important property is no
	// false positives.
	ok, _ := VerifyPlans(a1, b1)
	_ = ok
}

func TestVerifyPlansRejectsDifferentTables(t *testing.T) {
	a1 := mustPlan(t, "SELECT id FROM emp")
	b1 := mustPlan(t, "SELECT id FROM dept")
	ok, reason := VerifyPlans(a1, b1)
	if ok {
		t.Fatal("different tables must not verify")
	}
	if !strings.Contains(reason, "different input tables") {
		t.Errorf("reason = %s", reason)
	}
}

func TestVerifyPlansRejectsDifferentPredicates(t *testing.T) {
	a1 := mustPlan(t, "SELECT * FROM emp WHERE dept = 1")
	b1 := mustPlan(t, "SELECT * FROM emp WHERE dept = 2")
	if ok, _ := VerifyPlans(a1, b1); ok {
		t.Fatal("different predicates must not verify")
	}
}

// TestVerifyPlansRejectsDistinctAggregate: an aggregate over DISTINCT values
// is not the aggregate over all values. The verifier compares canonical plan
// fingerprints, which used to drop the DISTINCT flag and so accepted the pair.
func TestVerifyPlansRejectsDistinctAggregate(t *testing.T) {
	for _, f := range []string{"COUNT", "SUM"} {
		plain := mustPlan(t, "SELECT "+f+"(dept) FROM emp")
		distinct := mustPlan(t, "SELECT "+f+"(DISTINCT dept) FROM emp")
		if ok, _ := VerifyPlans(plain, distinct); ok {
			t.Errorf("%s(dept) verified equivalent to %s(DISTINCT dept)", f, f)
		}
		if ok, reason := VerifyPlans(distinct, mustPlan(t, "SELECT "+f+"(DISTINCT dept) FROM emp")); !ok {
			t.Errorf("%s(DISTINCT dept) must verify against itself: %s", f, reason)
		}
	}
}

func TestVerifyRuleSelProjSwap(t *testing.T) {
	// Rule 1 of Table 7 is provable by both verifiers: Sel(Proj) = Proj(Sel).
	src := template.Sel(p(0), a(0), template.Proj(a(1), template.Input(r(0))))
	dest := template.Proj(a(1), template.Sel(p(0), a(0), template.Input(r(0))))
	cs := constraint.NewSet(
		constraint.New(constraint.SubAttrs, a(0), a(1)),
		constraint.New(constraint.SubAttrs, a(1), template.AttrsOf(r(0))),
	)
	ok, reason := VerifyRule(src, dest, cs)
	if !ok {
		t.Fatalf("rule 1 should verify via SPES: %s", reason)
	}
}

func TestVerifyRuleJoinCommuteUnderProj(t *testing.T) {
	// Rule 22: Proj(IJoin(r0,r1)) = Proj(IJoin(r1,r0)).
	src := template.Proj(a(2), template.Join(template.OpIJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1))))
	dest := template.Proj(a(2), template.Join(template.OpIJoin, a(1), a(0), template.Input(r(1)), template.Input(r(0))))
	cs := constraint.NewSet(
		constraint.New(constraint.SubAttrs, a(0), template.AttrsOf(r(0))),
		constraint.New(constraint.SubAttrs, a(1), template.AttrsOf(r(1))),
		constraint.New(constraint.SubAttrs, a(2), template.AttrsOf(r(0))),
	)
	ok, reason := VerifyRule(src, dest, cs)
	if !ok {
		t.Fatalf("rule 22 should verify via SPES: %s", reason)
	}
}

func TestVerifyRuleJoinEliminationFailsWithoutICSupport(t *testing.T) {
	// Rule 7 needs integrity constraints AND drops an input table; SPES must
	// reject it (Table 7 marks it W).
	src := template.Proj(a(2), template.Join(template.OpIJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1))))
	dest := template.Proj(a(2), template.Input(r(0)))
	cs := constraint.NewSet(
		constraint.New(constraint.RefAttrs, r(0), a(0), r(1), a(1)),
		constraint.New(constraint.NotNull, r(0), a(0)),
		constraint.New(constraint.Unique, r(1), a(1)),
		constraint.New(constraint.SubAttrs, a(2), template.AttrsOf(r(0))),
	)
	ok, reason := VerifyRule(src, dest, cs)
	if ok {
		t.Fatal("SPES must not prove join elimination")
	}
	if !strings.Contains(reason, "different input tables") {
		t.Errorf("expected input-table rejection, got: %s", reason)
	}
	if !UsesIntegrityConstraints(cs) {
		t.Error("constraint set should be flagged as IC-dependent")
	}
}

func TestVerifyRuleRedundantInSubFails(t *testing.T) {
	// Rule 4 is marked W in Table 7: SPES has no semi-join idempotence.
	src := template.InSub(a(0), template.InSub(a(0), template.Input(r(0)), template.Input(r(1))), template.Input(r(1)))
	dest := template.InSub(a(0), template.Input(r(0)), template.Input(r(1)))
	cs := constraint.NewSet(
		constraint.New(constraint.SubAttrs, a(0), template.AttrsOf(r(0))),
	)
	if ok, _ := VerifyRule(src, dest, cs); ok {
		t.Fatal("SPES should not prove the redundant IN-subquery rule")
	}
}

func TestVerifyRuleAggSupported(t *testing.T) {
	// Rule 33-style: Agg over an interior projection = Agg without it.
	f := template.Sym{Kind: template.KFunc, ID: 0}
	src := template.AggNode(a(0), a(1), f, p(0), template.Proj(a(2), template.Input(r(0))))
	dest := template.AggNode(a(0), a(1), f, p(0), template.Input(r(0)))
	cs := constraint.NewSet(
		constraint.New(constraint.SubAttrs, a(0), a(2)),
		constraint.New(constraint.SubAttrs, a(1), a(2)),
		constraint.New(constraint.SubAttrs, a(2), template.AttrsOf(r(0))),
	)
	ok, reason := VerifyRule(src, dest, cs)
	if !ok {
		t.Fatalf("SPES should prove Agg over interior projection: %s", reason)
	}
}

func TestConcretizeGeneratesValidSchema(t *testing.T) {
	src := template.Proj(a(2), template.Join(template.OpIJoin, a(0), a(1), template.Input(r(0)), template.Input(r(1))))
	dest := template.Proj(a(2), template.Input(r(0)))
	cs := constraint.NewSet(
		constraint.New(constraint.RefAttrs, r(0), a(0), r(1), a(1)),
		constraint.New(constraint.NotNull, r(0), a(0)),
		constraint.New(constraint.Unique, r(1), a(1)),
		constraint.New(constraint.SubAttrs, a(0), template.AttrsOf(r(0))),
		constraint.New(constraint.SubAttrs, a(1), template.AttrsOf(r(1))),
		constraint.New(constraint.SubAttrs, a(2), template.AttrsOf(r(0))),
	)
	cSrc, cDest, err := Concretize(src, dest, cs)
	if err != nil {
		t.Fatal(err)
	}
	if cSrc.Schema != cDest.Schema {
		t.Error("both sides should share a schema")
	}
	// The FK from RefAttrs must be declared.
	foundFK := false
	for _, name := range cSrc.Schema.TableNames() {
		def, _ := cSrc.Schema.Table(name)
		if len(def.ForeignKeys) > 0 {
			foundFK = true
		}
	}
	if !foundFK {
		t.Error("RefAttrs should produce a foreign key in the schema")
	}
	// The source plan must be expressible as SQL.
	out := plan.ToSQLString(cSrc.Plan)
	if !strings.Contains(out, "JOIN") {
		t.Errorf("concretized source SQL looks wrong: %s", out)
	}
}

func TestConcretizeSharedRelationAliases(t *testing.T) {
	// Rule 4's source scans the same relation twice: aliases must differ.
	src := template.InSub(a(0), template.InSub(a(0), template.Input(r(0)), template.Input(r(1))), template.Input(r(2)))
	dest := template.InSub(a(0), template.Input(r(0)), template.Input(r(1)))
	cs := constraint.NewSet(
		constraint.New(constraint.RelEq, r(1), r(2)),
		constraint.New(constraint.SubAttrs, a(0), template.AttrsOf(r(0))),
	)
	cSrc, _, err := Concretize(src, dest, cs)
	if err != nil {
		t.Fatal(err)
	}
	tables := plan.BaseTables(cSrc.Plan)
	if len(tables) != 3 {
		t.Fatalf("expected 3 scans, got %v", tables)
	}
	if tables[1] != tables[2] {
		t.Errorf("r1 = r2 should share a table name: %v", tables)
	}
}

// TestVerifyPlansAliasInsensitive: the aliases a query chooses decide
// nothing. Bindings are compared by position in the plan, so an alias that
// is the tail of another ("u" in "bu"), or that sorts on the other side of
// its join partner, leaves the normal form alone.
func TestVerifyPlansAliasInsensitive(t *testing.T) {
	for _, tc := range []struct{ name, a, b string }{
		{"alias is a suffix of another",
			"SELECT u.id FROM emp u JOIN dept bu ON u.dept = bu.id WHERE bu.name = 'x'",
			"SELECT p.id FROM emp p JOIN dept q ON p.dept = q.id WHERE q.name = 'x'"},
		{"aliases sort the other way round",
			"SELECT z.id FROM emp z JOIN dept a ON z.dept = a.id WHERE z.salary = a.id",
			"SELECT a.id FROM emp a JOIN dept z ON a.dept = z.id WHERE a.salary = z.id"},
		{"renamed and commuted",
			"SELECT u.id FROM emp u JOIN dept bu ON u.dept = bu.id WHERE bu.name = 'x'",
			"SELECT p.id FROM dept q JOIN emp p ON q.id = p.dept WHERE q.name = 'x'"},
		{"output column in a join equality class",
			"SELECT u.dept FROM emp u JOIN dept bu ON u.dept = bu.id",
			"SELECT p.dept FROM emp p JOIN dept q ON p.dept = q.id"},
		{"self join",
			"SELECT e.id FROM emp e JOIN emp be ON e.dept = be.id WHERE be.salary > 1",
			"SELECT x.id FROM emp x JOIN emp y ON x.dept = y.id WHERE y.salary > 1"},
	} {
		if ok, reason := VerifyPlans(mustPlan(t, tc.a), mustPlan(t, tc.b)); !ok {
			t.Errorf("%s: equivalent plans rejected: %s", tc.name, reason)
		}
	}
	// Renaming must not blur which scan a predicate reads.
	if ok, _ := VerifyPlans(
		mustPlan(t, "SELECT e.id FROM emp e JOIN emp be ON e.dept = be.id WHERE be.salary > 1"),
		mustPlan(t, "SELECT x.id FROM emp x JOIN emp y ON x.dept = y.id WHERE x.salary > 1")); ok {
		t.Error("self join with the filter on the other scan wrongly proved equivalent")
	}
}
