package wetune

import (
	"context"
	"strings"
	"testing"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/difftest"
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
	res, err := opt.OptimizeSQLResult(
		"SELECT * FROM users WHERE id IN (SELECT id FROM users WHERE plan_id = 3)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) == 0 {
		t.Fatal("no rules applied")
	}
	if strings.Contains(res.Output, "IN (") {
		t.Fatalf("IN-subquery not eliminated: %s", res.Output)
	}
}

func TestOptimizerJoinElimination(t *testing.T) {
	schema := demoSchema(t)
	opt := NewOptimizer(BuiltinRules(), schema)
	res, err := opt.OptimizeSQLResult(
		"SELECT events.kind FROM events INNER JOIN users ON events.user_id = users.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) == 0 || strings.Contains(res.Output, "JOIN") {
		t.Fatalf("FK join not eliminated (applied %v): %s", res.Applied, res.Output)
	}
}

func TestVerifyRuleAPI(t *testing.T) {
	for _, r := range BuiltinRules() {
		want := Verified
		if r.No >= 33 && r.No <= 35 {
			want = Unsupported // aggregation, outside the built-in verifier (Table 6)
		}
		if got := VerifyRule(r); got != want {
			t.Errorf("library rule %d (%s): %v, want %v", r.No, r.Name, got, want)
		}
	}
	rel := func(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
	ats := func(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
	sub := func(a, r template.Sym) constraint.C {
		return constraint.New(constraint.SubAttrs, a, template.AttrsOf(r))
	}
	r0, r1, a0, a1, a2 := rel(0), rel(1), ats(0), ats(1), ats(2)

	// Table 7's rule 25, left out of the library: neither verifier proves it
	// and the engine agrees with it. Schema discipline in discovery may
	// bring it back.
	rule25 := Rule{
		No: 25, Name: "join-dedup-to-insub",
		Src: template.Proj(a2, template.Join(template.OpIJoin, a0, a1, template.Input(r0),
			template.Dedup(template.Proj(a1, template.Input(r1))))),
		Dest:        template.Proj(a2, template.InSub(a0, template.Input(r0), template.Proj(a1, template.Input(r1)))),
		Constraints: constraint.NewSet(sub(a0, r0), sub(a1, r1), sub(a2, r0)),
	}
	if got := VerifyRule(rule25); got != Rejected {
		t.Errorf("rule 25: %v, want %v", got, Rejected)
	}
	if res, detail := difftest.CheckRule(rule25.Src, rule25.Dest, rule25.Constraints, defaultCheckSeed); res != difftest.Agreed {
		t.Errorf("rule 25 on the engine: %v (%s), want %v", res, detail, difftest.Agreed)
	}

	// Sel_p(r) => r is wrong, and the engine shows it.
	dropSel := Rule{
		Name:        "drop-selection",
		Src:         template.Sel(template.Sym{Kind: template.KPred, ID: 0}, a0, template.Input(r0)),
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
	// internal/rules/testdata/verdicts.golden pins which 17 they are.
	if okCount != 17 {
		t.Errorf("SPES verifies %d of the Table 7 rules, want 17", okCount)
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
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res := Discover(DiscoveryOptions{MaxTemplateSize: 2, Context: ctx})
	// CacheHits counts the probes a pair's verdict memo answered; every other
	// probe is a prover call.
	if st := res.Stats; st.ProverCalls == 0 || st.CacheHits != 288 || st.CacheMisses != st.ProverCalls || len(res.Rules) != 69 || st.Cut != nil {
		t.Fatalf("size-2 discovery: %d prover calls, %d memo hits, %d misses, %d rules, cut %+v; want >0, 288, the prover calls, 69, none",
			st.ProverCalls, st.CacheHits, st.CacheMisses, len(res.Rules), st.Cut)
	}
	// A run whose context ended first says so.
	expired, stop := context.WithCancel(ctx)
	stop()
	if cut := Discover(DiscoveryOptions{MaxTemplateSize: 2, Context: expired}).Stats.Cut; cut == nil || cut.Unsearched != 250 {
		t.Errorf("cancelled discovery: Cut = %+v, want 250 pairs unsearched", cut)
	}
	// Each call proves on its own empty cache: a second run in the same
	// process re-proves everything and finds the same rules.
	again := Discover(DiscoveryOptions{MaxTemplateSize: 2, Context: ctx})
	if again.Stats.CacheHits != res.Stats.CacheHits || again.Stats.ProverCalls != res.Stats.ProverCalls {
		t.Errorf("second run: %d memo hits, %d prover calls; want %d and %d",
			again.Stats.CacheHits, again.Stats.ProverCalls, res.Stats.CacheHits, res.Stats.ProverCalls)
	}
	if len(again.Rules) != len(res.Rules) {
		t.Fatalf("second run found %d rules, first %d", len(again.Rules), len(res.Rules))
	}
	for i, d := range res.Rules {
		if a := again.Rules[i]; a.Source != d.Source || a.Destination != d.Destination || a.Constraints != d.Constraints {
			t.Errorf("rule %d differs across runs:\n  %s => %s under %s\n  %s => %s under %s",
				i, d.Source, d.Destination, d.Constraints, a.Source, a.Destination, a.Constraints)
		}
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
	p, err := opt.PlanSQL("SELECT * FROM users WHERE id IN (SELECT id FROM users WHERE plan_id = 2)")
	if err != nil {
		t.Fatal(err)
	}
	better, applied := opt.Optimize(p)
	if len(applied) == 0 {
		t.Fatal("no rewrite")
	}
	start := db.Stats.RowsVisited
	r1, err := Execute(db, p)
	if err != nil {
		t.Fatal(err)
	}
	mid := db.Stats.RowsVisited
	r2, err := Execute(db, better)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r2))
	}
	if before, after := mid-start, db.Stats.RowsVisited-mid; after > before {
		t.Errorf("optimized plan visits %d rows, the original %d", after, before)
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
	res, err := opt.OptimizeSQLResult("SELECT DISTINCT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) == 0 || strings.Contains(res.Output, "DISTINCT") {
		t.Fatalf("DISTINCT on pk not eliminated: %s", res.Output)
	}
}
