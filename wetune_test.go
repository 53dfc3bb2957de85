package wetune

import (
	"strings"
	"testing"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/template"
)

func demoSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	s.AddTable(&TableDef{
		Name: "users",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "email", Type: TString, NotNull: true},
			{Name: "plan_id", Type: TInt},
		},
		PrimaryKey: []string{"id"},
		Uniques:    [][]string{{"email"}},
	})
	s.AddTable(&TableDef{
		Name: "plans",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "name", Type: TString},
		},
		PrimaryKey: []string{"id"},
	})
	s.AddTable(&TableDef{
		Name: "events",
		Columns: []Column{
			{Name: "id", Type: TInt, NotNull: true},
			{Name: "user_id", Type: TInt, NotNull: true},
			{Name: "kind", Type: TString},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []ForeignKey{
			{Columns: []string{"user_id"}, RefTable: "users", RefColumns: []string{"id"}},
		},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptimizeSQLEndToEnd(t *testing.T) {
	schema := demoSchema(t)
	opt := NewOptimizer(BuiltinRules(), schema)
	out, applied, err := opt.OptimizeSQL(
		"SELECT * FROM users WHERE id IN (SELECT id FROM users WHERE plan_id = 3)")
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 {
		t.Fatal("no rules applied")
	}
	if strings.Contains(out, "IN (") {
		t.Fatalf("IN-subquery not eliminated: %s", out)
	}
}

func TestOptimizerJoinElimination(t *testing.T) {
	schema := demoSchema(t)
	opt := NewOptimizer(BuiltinRules(), schema)
	out, applied, err := opt.OptimizeSQL(
		"SELECT events.kind FROM events INNER JOIN users ON events.user_id = users.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 || strings.Contains(out, "JOIN") {
		t.Fatalf("FK join not eliminated (applied %v): %s", applied, out)
	}
}

func TestVerifyRuleAPI(t *testing.T) {
	for _, r := range BuiltinRules() {
		got := VerifyRule(r)
		switch {
		case got == Refuted:
			t.Errorf("library rule %d (%s) refuted", r.No, r.Name)
		case r.No == 25:
			// Neither verifier proves rule 25 and the engine agrees with it.
			if got != Rejected {
				t.Errorf("rule 25: %v, want %v", got, Rejected)
			}
		case r.Verifier == "S":
			// The built-in verifier does not cover SPES-only rules.
		case got != Verified:
			t.Errorf("rule %d: %v", r.No, got)
		}
	}
	// Sel_p(r) => r is wrong, and the engine shows it.
	r0 := template.Sym{Kind: template.KRel, ID: 0}
	dropSel := Rule{
		Name:        "drop-selection",
		Src:         template.Sel(template.Sym{Kind: template.KPred, ID: 0}, template.Sym{Kind: template.KAttrs, ID: 0}, template.Input(r0)),
		Dest:        template.Input(r0),
		Constraints: constraint.NewSet(),
	}
	if got := VerifyRule(dropSel); got != Refuted {
		t.Errorf("Sel_p(r) => r: %v, want %v", got, Refuted)
	}
}

func TestVerifySPESAPI(t *testing.T) {
	okCount := 0
	for _, r := range Table7Rules() {
		if ok, _ := VerifySPES(r); ok {
			okCount++
		}
	}
	if okCount < 12 {
		t.Errorf("SPES verifies only %d rules", okCount)
	}
}

func TestVerifySQLPairAPI(t *testing.T) {
	schema := demoSchema(t)
	out, err := VerifySQLPair(
		"SELECT id FROM users WHERE plan_id = 1 AND email = 'a'",
		"SELECT id FROM users WHERE email = 'a' AND plan_id = 1",
		schema)
	if err != nil || out != Verified {
		t.Fatalf("conjunct reorder: %v, %v", out, err)
	}
	out, err = VerifySQLPair(
		"SELECT id FROM users WHERE plan_id = 1",
		"SELECT id FROM users WHERE plan_id = 2",
		schema)
	if err != nil || out == Verified {
		t.Fatalf("different constants must not verify: %v", out)
	}
}

func TestDiscoverAPI(t *testing.T) {
	res := Discover(DiscoveryOptions{MaxTemplateSize: 1, Budget: 20 * time.Second})
	// Earlier tests may have warmed the shared proof cache, in which case
	// verdicts are cache hits instead of prover calls.
	if res.Templates == 0 || res.ProverCalls+res.CacheHits == 0 {
		t.Fatal("discovery did not run")
	}
	// Every discovered rule must re-verify.
	for _, d := range res.Rules {
		if got := VerifyRule(d.AsRule); got != Verified {
			t.Errorf("discovered rule %s => %s does not verify: %v", d.Source, d.Destination, got)
		}
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	schema := demoSchema(t)
	db := NewDatabase(schema)
	if err := Populate(db, PopulateOptions{Rows: 300, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer(BuiltinRules(), schema)
	opt.UseDB(db)
	p, err := opt.PlanSQL("SELECT * FROM users WHERE id IN (SELECT id FROM users WHERE plan_id = 2)")
	if err != nil {
		t.Fatal(err)
	}
	better, applied := opt.Optimize(p)
	if len(applied) == 0 {
		t.Fatal("no rewrite")
	}
	r1, err := Execute(db, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(db, better)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r2))
	}
	if EstimateCost(db, better) > EstimateCost(db, p) {
		t.Error("optimized plan should not cost more")
	}
}

func TestReduceRulesAPI(t *testing.T) {
	kept, _ := ReduceRules(BuiltinRules())
	if len(kept) == 0 {
		t.Fatal("reduction removed everything")
	}
}

func TestParseSchemaAPI(t *testing.T) {
	schema, err := ParseSchema(`
		CREATE TABLE t (
			id INT NOT NULL PRIMARY KEY,
			name VARCHAR(50)
		);
	`)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewOptimizer(BuiltinRules(), schema)
	out, applied, err := opt.OptimizeSQL("SELECT DISTINCT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) == 0 || strings.Contains(out, "DISTINCT") {
		t.Fatalf("DISTINCT on pk not eliminated: %s", out)
	}
}
