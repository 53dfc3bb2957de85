// Property-based plan/SQL round-trip tests, external package: they draw
// random plans from the difftest generator (difftest imports plan, so an
// internal test package would cycle).
package plan_test

import (
	"fmt"
	"math/rand"
	"testing"

	"wetune/internal/datagen"
	"wetune/internal/difftest"
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/sql"
)

// TestPlanSQLRoundTripExecEquivalent is the semantic round-trip property: for
// random plans, printing to SQL and re-building a plan from that SQL must not
// change the result rows. This is the property the repro replay path depends
// on (repros store SQL text, not plan trees).
func TestPlanSQLRoundTripExecEquivalent(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := difftest.GenSchema(rng)
		db := engine.NewDB(schema)
		if err := datagen.Populate(db, datagen.Options{
			Rows: 15, Seed: seed, NullFraction: 0.2, DistinctValues: 8,
		}); err != nil {
			t.Fatalf("seed %d: populate: %v", seed, err)
		}
		p := difftest.GenPlan(rng, schema)
		query := plan.ToSQLString(p)
		rebuilt, err := plan.BuildSQL(query, schema)
		if err != nil {
			t.Fatalf("seed %d: printed SQL does not build: %v\n  %s", seed, err, query)
		}
		want, err := db.Execute(p, nil)
		if err != nil {
			t.Fatalf("seed %d: original plan failed: %v\n  %s", seed, err, query)
		}
		got, err := db.Execute(rebuilt, nil)
		if err != nil {
			t.Fatalf("seed %d: rebuilt plan failed: %v\n  %s", seed, err, query)
		}
		if !difftest.BagEqual(want.Rows, got.Rows) {
			t.Fatalf("seed %d: round trip changed results\n  %s\n%s",
				seed, query, difftest.DiffBags(want.Rows, got.Rows))
		}
	}
}

// TestPlanSQLPrintFixedPoint checks print→parse→build→print is a fixed point:
// a second round trip must render exactly the first round trip's SQL, so
// repros and goldens are stable.
func TestPlanSQLPrintFixedPoint(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := difftest.GenSchema(rng)
		p := difftest.GenPlan(rng, schema)
		first := plan.ToSQLString(p)
		rebuilt, err := plan.BuildSQL(first, schema)
		if err != nil {
			t.Fatalf("seed %d: printed SQL does not build: %v\n  %s", seed, err, first)
		}
		second := plan.ToSQLString(rebuilt)
		rebuilt2, err := plan.BuildSQL(second, schema)
		if err != nil {
			t.Fatalf("seed %d: second print does not build: %v\n  %s", seed, err, second)
		}
		third := plan.ToSQLString(rebuilt2)
		if second != third {
			t.Fatalf("seed %d: print is not a fixed point after one rebuild:\n  second: %s\n  third:  %s",
				seed, second, third)
		}
	}
}

// TestCloneIsDeepAndEquivalent checks plan.Clone yields an independent,
// semantically identical tree: same fingerprint and SQL, and mutating a
// literal in the clone leaves the original untouched (the shrinker relies on
// this isolation).
func TestCloneIsDeepAndEquivalent(t *testing.T) {
	check := func(name string, p plan.Node) {
		c := plan.Clone(p)
		if plan.Fingerprint(p) != plan.Fingerprint(c) {
			t.Fatalf("%s: clone fingerprint differs", name)
		}
		before := plan.ToSQLString(p)
		if !mutateFirstLiteral(c) {
			return
		}
		if plan.ToSQLString(c) == before {
			t.Fatalf("%s: the mutation did not show in the clone", name)
		}
		if after := plan.ToSQLString(p); after != before {
			t.Fatalf("%s: mutating the clone changed the original:\n  before: %s\n  after:  %s", name, before, after)
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := difftest.GenSchema(rng)
		check(fmt.Sprint("seed ", seed), difftest.GenPlan(rng, schema))
	}
	// A CASE arm holds the only literal: CloneExpr used to return CASE shared.
	schema := sql.NewSchema()
	schema.AddTable(&sql.TableDef{Name: "t", Columns: []sql.Column{{Name: "a", Type: sql.TInt}}})
	p, err := plan.BuildSQL("SELECT a FROM t WHERE CASE WHEN a IS NULL THEN 7 ELSE a END = a", schema)
	if err != nil {
		t.Fatal(err)
	}
	check("case arm", p)
}

// mutateFirstLiteral overwrites the first literal of a predicate or join
// condition, if there is one.
func mutateFirstLiteral(n plan.Node) (done bool) {
	mutate := func(e sql.Expr) {
		sql.WalkExprs(e, func(x sql.Expr) bool {
			if lit, ok := x.(*sql.Literal); ok && !done {
				lit.Val, done = sql.NewInt(-987654), true
			}
			return !done
		})
	}
	plan.Walk(n, func(m plan.Node) bool {
		switch x := m.(type) {
		case *plan.Sel:
			mutate(x.Pred)
		case *plan.Join:
			mutate(x.On)
		}
		return !done
	})
	return done
}
