package difftest

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/datagen"
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/sql"
	"wetune/internal/template"
)

func TestBagEqual(t *testing.T) {
	r := func(vs ...int64) engine.Row {
		row := make(engine.Row, len(vs))
		for i, v := range vs {
			row[i] = sql.NewInt(v)
		}
		return row
	}
	cases := []struct {
		name string
		a, b []engine.Row
		want bool
	}{
		{"empty", nil, nil, true},
		{"same order", []engine.Row{r(1), r(2)}, []engine.Row{r(1), r(2)}, true},
		{"reordered", []engine.Row{r(1), r(2)}, []engine.Row{r(2), r(1)}, true},
		{"multiplicity respected", []engine.Row{r(1), r(1), r(2)}, []engine.Row{r(1), r(2), r(1)}, true},
		{"multiplicity differs", []engine.Row{r(1), r(1)}, []engine.Row{r(1), r(2)}, false},
		{"length differs", []engine.Row{r(1)}, []engine.Row{r(1), r(1)}, false},
		{"null vs zero distinct", []engine.Row{{sql.Null}}, []engine.Row{{sql.NewInt(0)}}, false},
		{"null equals null as bag element", []engine.Row{{sql.Null}}, []engine.Row{{sql.Null}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := BagEqual(tc.a, tc.b); got != tc.want {
				t.Fatalf("BagEqual = %v, want %v\ndiff: %s", got, tc.want, DiffBags(tc.a, tc.b))
			}
		})
	}
}

func TestDiffBagsExplainsMismatch(t *testing.T) {
	a := []engine.Row{{sql.NewInt(1)}, {sql.NewInt(2)}}
	b := []engine.Row{{sql.NewInt(2)}, {sql.NewInt(3)}}
	d := DiffBags(a, b)
	if d == "" {
		t.Fatal("expected non-empty diff")
	}
	if DiffBags(a, a) != "" {
		t.Fatal("expected empty diff for equal bags")
	}
}

func TestGenSchemaDeterministic(t *testing.T) {
	s1 := GenSchema(rand.New(rand.NewSource(7)))
	s2 := GenSchema(rand.New(rand.NewSource(7)))
	if sql.FormatDDL(s1) != sql.FormatDDL(s2) {
		t.Fatalf("same seed produced different schemas:\n%s\nvs\n%s", sql.FormatDDL(s1), sql.FormatDDL(s2))
	}
	if sql.FormatDDL(s1) == sql.FormatDDL(GenSchema(rand.New(rand.NewSource(8)))) {
		t.Fatal("different seeds produced identical schemas (suspicious)")
	}
}

func TestGenSchemaRoundTripsThroughDDL(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		s := GenSchema(rand.New(rand.NewSource(seed)))
		ddl := sql.FormatDDL(s)
		back, err := sql.ParseDDL(ddl)
		if err != nil {
			t.Fatalf("seed %d: ParseDDL(FormatDDL): %v\n%s", seed, err, ddl)
		}
		if sql.FormatDDL(back) != ddl {
			t.Fatalf("seed %d: DDL not a fixed point:\n%s\nvs\n%s", seed, ddl, sql.FormatDDL(back))
		}
	}
}

// TestGenPlanExecutes checks the validity-by-construction promise: every
// generated plan must execute without error on a populated database.
func TestGenPlanExecutes(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := GenSchema(rng)
		db := engine.NewDB(schema)
		if err := datagen.Populate(db, datagen.Options{Rows: 20, Seed: seed, DistinctValues: genDistinctValues}); err != nil {
			t.Fatalf("seed %d: populate: %v", seed, err)
		}
		p := GenPlan(rng, schema)
		if _, err := db.Execute(p, nil); err != nil {
			t.Fatalf("seed %d: execute %s: %v", seed, plan.ToSQLString(p), err)
		}
	}
}

// TestGenPlanPassesCheck backs GenPlan's claim that its plans resolve every
// column reference by construction: every plan of 2,000 seeds passes
// plan.Check.
func TestGenPlanPassesCheck(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := GenSchema(rng)
		p := GenPlan(rng, schema)
		if _, err := plan.Check(nil, p, schema); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, plan.ToSQLString(p), err)
		}
	}
}

// TestOracleZeroMismatches is the headline property: the discovered rule set
// never changes query results on any generated database. The CI fuzz smoke
// job runs the same check for more iterations via `wetune fuzz`.
func TestOracleZeroMismatches(t *testing.T) {
	rep, err := Run(context.Background(), Options{Seed: 1, N: 60})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Iterations != 60 {
		t.Fatalf("expected 60 iterations, ran %d", rep.Iterations)
	}
	if rep.Candidates == 0 {
		t.Fatal("oracle exercised zero rewrite candidates — generator and rules never overlap")
	}
	for _, m := range rep.Mismatches {
		t.Errorf("rule %d (%s) iteration %d: %s\nrepro: %s",
			m.RuleNo, m.RuleName, m.Iteration, m.Diff, m.Repro.Summary())
	}
}

// brokenRule drops a selection outright — an obviously unsound rewrite the
// oracle must catch.
func brokenRule() rules.Rule {
	r0 := template.Sym{Kind: template.KRel, ID: 0}
	a0 := template.Sym{Kind: template.KAttrs, ID: 0}
	p0 := template.Sym{Kind: template.KPred, ID: 0}
	return rules.Rule{
		No:   999,
		Name: "broken-drop-selection",
		Src:  template.Sel(p0, a0, template.Input(r0)),
		Dest: template.Input(r0),
		Constraints: constraint.NewSet(
			constraint.New(constraint.SubAttrs, a0, template.AttrsOf(r0)),
		),
	}
}

// TestOracleCatchesBrokenRule injects an intentionally unsound rule and
// requires the oracle to catch it with a shrunken, replayable repro artifact.
func TestOracleCatchesBrokenRule(t *testing.T) {
	rep, err := Run(context.Background(), Options{
		Seed:  1,
		N:     200,
		Rules: []rules.Rule{brokenRule()},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Mismatches) == 0 {
		t.Fatalf("broken rule escaped the oracle (%d iterations, %d candidates)",
			rep.Iterations, rep.Candidates)
	}

	replayed := false
	for _, m := range rep.Mismatches {
		rp := m.Repro
		if rp == nil {
			t.Fatal("mismatch without repro artifact")
		}
		if m.RuleNo != 999 {
			t.Fatalf("mismatch attributed to rule %d, want 999", m.RuleNo)
		}
		// The artifact must survive a disk round trip and still reproduce
		// through the parse→build→execute path.
		path := filepath.Join(t.TempDir(), "repro.json")
		if err := rp.Save(path); err != nil {
			t.Fatalf("save repro: %v", err)
		}
		back, err := LoadRepro(path)
		if err != nil {
			t.Fatalf("load repro: %v", err)
		}
		if back.SourceSQL != rp.SourceSQL || back.RewrittenSQL != rp.RewrittenSQL {
			t.Fatal("repro did not round-trip through JSON")
		}
		ok, err := back.Replay()
		if err != nil {
			t.Logf("replay not possible for this plan shape: %v", err)
			continue
		}
		if !ok {
			t.Fatalf("replayed repro no longer reproduces:\n%s", back.Summary())
		}
		replayed = true
	}
	if !replayed {
		t.Fatal("no mismatch produced a replayable repro")
	}
}

// TestShrinkReducesCounterexample checks that shrinking actually shrinks: the
// minimized database is no larger than the original and the mismatch is kept.
func TestShrinkReducesCounterexample(t *testing.T) {
	rep, err := Run(context.Background(), Options{
		Seed:           3,
		N:              200,
		Rules:          []rules.Rule{brokenRule()},
		RowsPerTable:   40,
		StopOnMismatch: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Mismatches) == 0 {
		t.Fatal("expected a mismatch from the broken rule")
	}
	rp := rep.Mismatches[0].Repro
	total := 0
	for _, rows := range rp.Tables {
		total += len(rows)
	}
	// The unshrunken counterexample would hold 40 rows in every scanned
	// table; the selection-dropping bug needs only rows the predicate
	// filters, so shrinking must do materially better.
	if total >= 40 {
		t.Fatalf("shrinking left %d rows (want < 40)\n%s", total, rp.Summary())
	}
	if rp.DDL == "" || rp.SourceSQL == "" || rp.RewrittenSQL == "" {
		t.Fatalf("repro artifact incomplete: %+v", rp)
	}
}

// TestOracleDeterministic: identical options yield identical reports.
func TestOracleDeterministic(t *testing.T) {
	run := func() *Report {
		rep, err := Run(context.Background(), Options{Seed: 5, N: 20})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.Iterations != r2.Iterations || r1.Candidates != r2.Candidates || len(r1.Mismatches) != len(r2.Mismatches) {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestOracleRespectsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, Options{Seed: 1, N: 1000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Iterations != 0 {
		t.Fatalf("cancelled run still executed %d iterations", rep.Iterations)
	}
}

func TestValueEncodingRoundTrip(t *testing.T) {
	vals := []sql.Value{
		sql.Null,
		sql.NewInt(0), sql.NewInt(-42), sql.NewInt(1 << 40),
		sql.NewFloat(0.5), sql.NewFloat(-3.25),
		sql.NewString(""), sql.NewString("v0001"), sql.NewString("with:colon"),
		sql.NewBool(true), sql.NewBool(false),
	}
	for _, v := range vals {
		got, err := decodeValue(encodeValue(v))
		if err != nil {
			t.Fatalf("decode(encode(%v)): %v", v, err)
		}
		if got.Kind != v.Kind || !got.Equal(v) {
			t.Fatalf("round trip %v -> %q -> %v", v, encodeValue(v), got)
		}
	}
	if _, err := decodeValue("x:?"); err == nil {
		t.Fatal("expected error for unknown tag")
	}
}
