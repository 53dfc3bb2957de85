package rewrite

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/workload"
)

// corpusPlans builds every plannable query of the 2 464-query rewrite corpus
// and a Rewriter per application schema.
func corpusPlans(t *testing.T) (plans []plan.Node, rws []*Rewriter) {
	t.Helper()
	schemas, items := workload.RewriteCorpus(100)
	byApp := map[string]*Rewriter{}
	for app, schema := range schemas {
		byApp[app] = NewRewriter(rules.All(), schema)
	}
	for _, it := range items {
		p, err := plan.BuildSQL(it.SQL, schemas[it.App])
		if err != nil {
			continue
		}
		plans = append(plans, p)
		rws = append(rws, byApp[it.App])
	}
	if len(plans) < 2000 {
		t.Fatalf("only %d corpus queries plan", len(plans))
	}
	return plans, rws
}

// positionalFingerprint is the definition aliasEqual's bytes are held to: the
// plan deep-cloned with every Scan/Derived binding renamed to "b<n>" in
// first-appearance order, then fingerprinted — the clone-and-rename path the
// matcher used before it appended the same text into scratch.
func positionalFingerprint(p plan.Node) string {
	rename := map[string]string{}
	plan.Walk(p, func(n plan.Node) bool {
		binding := ""
		switch x := n.(type) {
		case *plan.Scan:
			binding = x.Binding
		case *plan.Derived:
			binding = x.Binding
		default:
			return true
		}
		if _, seen := rename[binding]; !seen {
			rename[binding] = fmt.Sprintf("b%d", len(rename))
		}
		return true
	})
	return plan.Fingerprint(renameBindings(p, nil, rename))
}

func checkAliasFingerprints(t *testing.T, m *Matcher, p plan.Node) (checked int) {
	t.Helper()
	plan.Walk(p, func(n plan.Node) bool {
		checked++
		got := string(m.appendAliasFingerprint(nil, n))
		if want := positionalFingerprint(n); got != want {
			t.Fatalf("alias-insensitive fingerprint diverged from rename-then-fingerprint:\n got %s\nwant %s", got, want)
		}
		return true
	})
	return checked
}

// TestAliasFingerprintMatchesRenamedFingerprint runs the comparison over every
// subplan of the corpus and of every single-step rewrite of it (the matcher
// also sees fragments of derived plans).
func TestAliasFingerprintMatchesRenamedFingerprint(t *testing.T) {
	plans, rws := corpusPlans(t)
	m := &Matcher{}
	checked := 0
	for i, p := range plans {
		checked += checkAliasFingerprints(t, m, p)
		for _, c := range rws[i].Candidates(EliminateOrderBy(p)) {
			checked += checkAliasFingerprints(t, m, c.Plan)
		}
	}
	t.Logf("%d subplans", checked)
}

// TestAliasFingerprintReachesEveryFreeColumn pins the part of the definition
// the corpus barely exercises: renameBindings reaches the column qualifiers
// inside CASE arms, the tested expression of IN (SELECT …) and the correlated
// references of IN, EXISTS and scalar subqueries, so they go positional like
// everything around them (a name an embedded FROM re-introduces does not).
// aliasEqual mirrors that exactly.
func TestAliasFingerprintReachesEveryFreeColumn(t *testing.T) {
	schema := gitlabSchema()
	m := &Matcher{}
	for _, q := range []string{
		`SELECT n.id FROM notes AS n WHERE CASE WHEN n.commit_id > 0 THEN n.id ELSE 0 END = 1 AND n.type = 'x'`,
		`SELECT n.id FROM notes AS n WHERE n.type = 'x' AND n.id NOT IN (SELECT m.id FROM notes AS m WHERE m.commit_id = n.commit_id)`,
		`SELECT n.id FROM notes AS n WHERE EXISTS (SELECT 1 FROM labels AS l WHERE l.id = n.id) AND n.id > ?`,
		`SELECT n.id FROM notes AS n WHERE n.commit_id = (SELECT MAX(l.id) FROM labels AS l WHERE l.project_id = n.id) OR n.id IS NULL`,
		`SELECT a.id FROM notes AS a INNER JOIN notes AS b ON a.id = b.commit_id WHERE a.type IN ('x', b.type) AND (a.id, b.id) NOT IN (SELECT l.id, l.project_id FROM labels AS l)`,
		`SELECT b1.id FROM notes AS b1 INNER JOIN labels AS b0 ON b1.id = b0.id WHERE b0.title = 'swap'`,
		`SELECT d.commit_id, COUNT(DISTINCT d.id) FROM (SELECT n.id, n.commit_id FROM notes AS n WHERE n.type = 'D') AS d
			GROUP BY d.commit_id HAVING COUNT(d.id) > 1 ORDER BY d.commit_id DESC LIMIT 5`,
		`SELECT n.id FROM notes AS n WHERE n.id IN (SELECT l.id FROM labels AS l UNION ALL SELECT p.id FROM projects AS p)`,
		`SELECT n.id FROM notes AS n WHERE EXISTS (SELECT 1 FROM labels AS n INNER JOIN projects AS p ON p.id = n.project_id WHERE n.id > 3)`,
	} {
		checkAliasFingerprints(t, m, mustPlan(t, q, schema))
	}

	p := mustPlan(t, `SELECT n.id FROM notes AS n WHERE CASE WHEN n.commit_id > 0 THEN 1 ELSE 0 END = 1 AND n.type = 'x'`, schema)
	got := string(m.appendAliasFingerprint(nil, p))
	for _, want := range []string{"b0.commit_id > 0", "b0.type = 'x'", "Proj[b0.id]", "Input(notes as b0)"} {
		if !strings.Contains(got, want) {
			t.Errorf("fingerprint %q lacks %q", got, want)
		}
	}

	// The point of it: one table under two aliases is the same relation.
	a := mustPlan(t, `SELECT x.id FROM notes AS x WHERE x.commit_id = 7`, schema)
	b := mustPlan(t, `SELECT y.id FROM notes AS y WHERE y.commit_id = 7`, schema)
	c := mustPlan(t, `SELECT y.id FROM notes AS y WHERE y.commit_id = 8`, schema)
	if !m.aliasEqual(a, b) || m.aliasEqual(a, c) || plan.Equal(a, b) {
		t.Errorf("aliasEqual(a,b)=%v aliasEqual(a,c)=%v Equal(a,b)=%v, want true false false",
			m.aliasEqual(a, b), m.aliasEqual(a, c), plan.Equal(a, b))
	}
}

// TestCandidatesIndependentOfPooledScratch: what Candidates returns is the
// caller's — equal across calls, untouched by later searches that reuse the
// pooled context, and without the arena-backed fingerprints.
func TestCandidatesIndependentOfPooledScratch(t *testing.T) {
	rw := newRW(t)
	p := EliminateOrderBy(mustPlan(t, q0, rw.Schema))
	other := mustPlan(t, `SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id WHERE projects.id = 4`, rw.Schema)

	describe := func(cs []Candidate) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = fmt.Sprintf("rule %d at %v -> %s", c.Rule.No, c.Path, plan.Fingerprint(c.Plan))
		}
		return out
	}
	first := rw.Candidates(p)
	if len(first) == 0 {
		t.Fatal("no candidates for the nested-IN query")
	}
	want := describe(first)
	rw.Candidates(other)
	rw.Search(other, Options{})
	second := rw.Candidates(p)
	if got := describe(first); !reflect.DeepEqual(got, want) {
		t.Errorf("earlier result changed after the pooled context was reused:\n got %q\nwant %q", got, want)
	}
	if got := describe(second); !reflect.DeepEqual(got, want) {
		t.Errorf("second call differs:\n got %q\nwant %q", got, want)
	}
	for _, c := range append(first, second...) {
		if c.fp != nil {
			t.Fatalf("returned candidate still points into the pooled fingerprint arena: %q", c.fp)
		}
	}
}

// TestSearchAllocBudget: a search that finds nothing to do — the common case
// on an application's query path — allocates nothing: its start state is
// fingerprinted and entered in the visited memo only when a rule matches
// there (22 allocations before the pooled context and byte fingerprints, 1
// before the lazy start state).
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own, and sync.Pool drops contexts under it")
	}
	rw := newRW(t)
	p := EliminateOrderBy(mustPlan(t, `SELECT title FROM labels WHERE project_id = 1`, rw.Schema))
	opts := Options{}
	opts.SkipOrderByElim = true
	if _, applied, stats := rw.Search(p, opts); len(applied) != 0 || stats.RuleAttempts != 0 {
		t.Fatalf("budget query should attempt no rule: applied %v, %d attempts", applied, stats.RuleAttempts)
	}
	if n := testing.AllocsPerRun(200, func() { rw.Search(p, opts) }); n != 0 {
		t.Errorf("Search of a non-matching plan: %v allocs, want 0", n)
	}
}

// TestFailedAttemptAllocatesNothing: a rule attempt that does not match binds
// into the matcher's slots, reads the rule's compiled constraint list and
// reads the plan's column lists into the attempt's column arena, so it
// allocates nothing. Every failing attempt the corpus searches make from
// their start states is held to that, join and IN-subquery rules among them.
func TestFailedAttemptAllocatesNothing(t *testing.T) {
	plans, rws := corpusPlans(t)
	failed := map[plan.Kind]int{}
	for i, p := range plans {
		p = EliminateOrderBy(p)
		m := &Matcher{Schema: rws[i].Schema}
		for _, path := range nodePaths(p) {
			frag := nodeAt(p, path)
			kindGroups, anyGroups := rws[i].ruleIndex().groupsFor(frag.Kind())
			for _, g := range append(kindGroups, anyGroups...) {
				if !shapeMatches(g.shape, frag) {
					continue
				}
				for _, cr := range g.rules {
					if _, ok := m.ApplyCompiled(cr, frag); ok {
						continue
					}
					failed[frag.Kind()]++
					if n := testing.AllocsPerRun(3, func() { m.ApplyCompiled(cr, frag) }); n != 0 {
						t.Errorf("rule %d at %v of %s: a failing attempt allocates %v times", cr.Rule.No, path, plan.ToSQLString(plans[i]), n)
					}
				}
			}
		}
	}
	if failed[plan.KJoin] == 0 || failed[plan.KInSub] == 0 {
		t.Fatalf("failing attempts by fragment kind %v: want join and IN-subquery fragments", failed)
	}
	t.Logf("failing attempts by fragment kind: %v", failed)
}

// TestEliminateOrderByCopiesNothingWhenNothingChanges: idempotent over the
// corpus (the second pass even returns the very node it was given), and free
// on a plan with no Sort to remove.
func TestEliminateOrderByCopiesNothingWhenNothingChanges(t *testing.T) {
	plans, _ := corpusPlans(t)
	for _, p := range plans {
		once := EliminateOrderBy(p)
		twice := EliminateOrderBy(once)
		if twice != once {
			t.Fatalf("second elimination rebuilt the plan:\n once  %s\n twice %s", plan.Fingerprint(once), plan.Fingerprint(twice))
		}
		if plan.Fingerprint(twice) != plan.Fingerprint(once) {
			t.Fatalf("not idempotent:\n once  %s\n twice %s", plan.Fingerprint(once), plan.Fingerprint(twice))
		}
	}

	schema := gitlabSchema()
	p := mustPlan(t, `SELECT title FROM labels WHERE project_id = 1`, schema)
	if EliminateOrderBy(p) != p {
		t.Error("a sort-free plan must come back as the same node")
	}
	if n := testing.AllocsPerRun(100, func() { EliminateOrderBy(p) }); n != 0 {
		t.Errorf("EliminateOrderBy of a sort-free plan: %v allocs, want 0", n)
	}

	// The in-place pass over predicate subqueries runs even when no operator
	// changes: the plan node is the same, its predicate lost the ORDER BY.
	q := mustPlan(t, `SELECT id FROM labels WHERE id NOT IN (SELECT id FROM labels ORDER BY title ASC)`, schema)
	if out := EliminateOrderBy(q); out != q || strings.Contains(plan.ToSQLString(out), "ORDER BY") {
		t.Errorf("predicate subquery ORDER BY must be stripped in place: same node %v, SQL %s", out == q, plan.ToSQLString(out))
	}
}

// TestAggItemsKeySeesDistinct: the matcher's aggregate-list identity (one
// function symbol bound twice, AggrEq) has the fingerprint's DISTINCT rule.
func TestAggItemsKeySeesDistinct(t *testing.T) {
	schema := gitlabSchema()
	items := func(q string) []plan.AggItem {
		var out []plan.AggItem
		plan.Walk(mustPlan(t, q, schema), func(n plan.Node) bool {
			if a, ok := n.(*plan.Agg); ok {
				out = a.Items
			}
			return true
		})
		return out
	}
	plain := aggItemsKey(items(`SELECT COUNT(project_id) FROM labels`))
	distinct := aggItemsKey(items(`SELECT COUNT(DISTINCT project_id) FROM labels`))
	if plain == "" || plain == distinct {
		t.Errorf("aggItemsKey: COUNT(a) = %q, COUNT(DISTINCT a) = %q", plain, distinct)
	}
}
