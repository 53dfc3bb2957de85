package rewrite

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"wetune/internal/faultinject"
	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/sql"
)

const q0 = `SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10) ORDER BY title ASC)`

// corpusOutputSHA256 pins the rewritten SQL of the whole rewrite corpus:
// sha256 over plan.ToSQLString(out)+"\n" per plannable query, in corpus order.
const corpusOutputSHA256 = "d6a98b1aea00dff45e857c6642cd90339ecbe294aca03b008e7f6db1a1affffc"

// TestCorpusOutputGolden: Search under the default budgets (Options{}, what
// every answer is searched with) over the application corpus plus
// the Calcite suite, full rule set, produces byte-identical SQL. A hot-path
// change that moves this hash changed what the engine emits. Every input and
// output passes plan.Check: Build does not call it, so this pins that what
// Build lowers is well-formed.
func TestCorpusOutputGolden(t *testing.T) {
	plans, rws := corpusPlans(t)
	h := sha256.New()
	rewritten := 0
	for i, p := range plans {
		out, applied, _ := rws[i].Search(p, Options{})
		for _, q := range []plan.Node{p, out} {
			if _, err := plan.Check(nil, q, rws[i].Schema); err != nil {
				t.Errorf("%s: %v", plan.ToSQLString(q), err)
			}
		}
		if len(applied) > 0 {
			rewritten++
			checkOutputNames(t, p, out, rws[i].Schema)
		}
		fmt.Fprintln(h, plan.ToSQLString(out))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if len(plans) != 2464 || rewritten != 353 || got != corpusOutputSHA256 {
		t.Errorf("corpus output: %d planned, %d rewritten, sha256 %s; want 2464 planned, 353 rewritten, sha256 %s\nif this change is intended, update the constant and say why in CHANGES.md",
			len(plans), rewritten, got, corpusOutputSHA256)
	}
}

// checkOutputNames fails the test when the printed rewrite of in answers
// with other column names than in does: a client reads its columns by name.
func checkOutputNames(t *testing.T, in, out plan.Node, schema *sql.Schema) {
	t.Helper()
	printed := plan.ToSQLString(out)
	back, err := plan.BuildSQL(printed, schema)
	if err != nil {
		t.Errorf("rewrite %q does not plan: %v", printed, err)
		return
	}
	names := func(p plan.Node) (out []string) {
		for _, c := range p.OutCols() {
			out = append(out, c.Column)
		}
		return out
	}
	if got, want := names(back), names(in); !slices.Equal(got, want) {
		t.Errorf("%s rewritten to %s renames the output columns %v to %v", plan.ToSQLString(in), printed, want, got)
	}
}

// TestRewriteKeepsOutputNames: a projection that renames its columns is not
// the template operator Proj_a, whose output is its attributes as they are,
// so no rule rebuilds it without the aliases. Rule 2 (dedup-unique-proj) used
// to answer both aliased queries with `SELECT labels.id FROM labels ...`.
func TestRewriteKeepsOutputNames(t *testing.T) {
	rw := newRW(t)
	for _, c := range []struct {
		query     string
		rewritten bool
	}{
		{`SELECT DISTINCT id AS x FROM labels`, false},
		{`SELECT DISTINCT labels.id AS x FROM labels WHERE project_id = 1`, false},
		{`SELECT DISTINCT id FROM labels`, true},
		{`SELECT DISTINCT labels.id FROM labels WHERE project_id = 1`, true},
	} {
		p := mustPlan(t, c.query, rw.Schema)
		out, applied, _ := rw.Search(p, Options{})
		if got := len(applied) > 0; got != c.rewritten {
			t.Errorf("%q: rewritten %v (%v), want %v", c.query, got, applied, c.rewritten)
		}
		checkOutputNames(t, p, out, rw.Schema)
	}
}

// TestSearchDeterministicAcrossRuleOrder pins the candidate tie-break: when
// candidates tie on operator count, the (rule number, position) order
// decides — so reversing the rule-set ordering must not change the result.
// This is a regression test for the pre-index engine, whose winner among tied
// candidates was whichever rule happened to be enumerated first.
func TestSearchDeterministicAcrossRuleOrder(t *testing.T) {
	schema := gitlabSchema()
	rs := rules.All()
	reversed := make([]rules.Rule, len(rs))
	for i, r := range rs {
		reversed[len(rs)-1-i] = r
	}
	fwd := NewRewriter(rs, schema)
	rev := NewRewriter(reversed, schema)
	queries := []string{
		q0,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
		`SELECT DISTINCT id FROM labels WHERE project_id = 3`,
	}
	for _, q := range queries {
		p := mustPlan(t, q, schema)
		fOut, fApplied, _ := fwd.Search(p, Options{})
		rOut, rApplied, _ := rev.Search(p, Options{})
		if plan.Fingerprint(fOut) != plan.Fingerprint(rOut) {
			t.Fatalf("%q: result depends on rule-set order:\n  fwd: %s\n  rev: %s",
				q, plan.ToSQLString(fOut), plan.ToSQLString(rOut))
		}
		if len(fApplied) != len(rApplied) {
			t.Fatalf("%q: applied chains differ in length: %v vs %v", q, fApplied, rApplied)
		}
		for i := range fApplied {
			if fApplied[i].RuleNo != rApplied[i].RuleNo {
				t.Fatalf("%q: applied chains differ: %v vs %v", q, fApplied, rApplied)
			}
		}
	}
}

// TestSearchRepeatedRunsIdentical verifies end-to-end determinism: repeated
// searches over the same input yield byte-identical SQL and rule chains.
func TestSearchRepeatedRunsIdentical(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	out0, applied0, stats0 := rw.Search(p, Options{})
	sql0 := plan.ToSQLString(out0)
	for i := 0; i < 10; i++ {
		out, applied, stats := rw.Search(p, Options{})
		if s := plan.ToSQLString(out); s != sql0 {
			t.Fatalf("run %d: SQL differs:\n  %s\n  %s", i, sql0, s)
		}
		if len(applied) != len(applied0) {
			t.Fatalf("run %d: applied chain differs: %v vs %v", i, applied0, applied)
		}
		if stats != stats0 {
			t.Fatalf("run %d: stats differ: %+v vs %+v", i, stats0, stats)
		}
	}
}

// TestSearchTruncatedBySteps: a one-step budget on a query needing a chain
// must be reported, not silently absorbed.
func TestSearchTruncatedBySteps(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	_, fullApplied, fullStats := rw.Search(p, Options{})
	if len(fullApplied) < 2 {
		t.Fatalf("q0 needs a multi-step chain for this test, got %v", fullApplied)
	}
	if fullStats.Truncated {
		t.Fatalf("default budgets should not truncate q0: %+v", fullStats)
	}
	_, _, stats := rw.Search(p, Options{maxSteps: 1})
	if !stats.Truncated {
		t.Fatalf("maxSteps=1 search not reported truncated: %+v", stats)
	}
	if stats.TruncatedBy != "steps" {
		t.Fatalf("TruncatedBy = %q, want steps", stats.TruncatedBy)
	}
	if stats.Steps > 1 {
		t.Fatalf("applied %d steps under maxSteps=1", stats.Steps)
	}
}

// TestSearchStarveTruncatesBySteps: the SearchStarve fault caps the chain at
// one step, and the search reports that cut.
func TestSearchStarveTruncatesBySteps(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	if err := faultinject.Set(faultinject.Fault{Point: faultinject.SearchStarve, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Clear(faultinject.SearchStarve)
	_, applied, stats := rw.Search(p, Options{})
	if !stats.Truncated || stats.TruncatedBy != "steps" || len(applied) > 1 || stats.NodesExplored != 1 {
		t.Fatalf("starved search: applied %v, stats %+v; want truncated by steps after one expansion", applied, stats)
	}
}

// TestSearchStatsPopulated checks the effort counters actually count.
func TestSearchStatsPopulated(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	out, applied, stats := rw.Search(p, Options{})
	if len(applied) == 0 {
		t.Fatal("q0 should be rewritten")
	}
	if stats.NodesExplored == 0 || stats.CandidatesSeen == 0 || stats.RuleAttempts == 0 {
		t.Fatalf("effort counters empty: %+v", stats)
	}
	if stats.IndexPruned == 0 {
		t.Fatalf("index pruned nothing over q0: %+v", stats)
	}
	if stats.InitialSize == 0 || stats.FinalSize == 0 {
		t.Fatalf("sizes not recorded: %+v", stats)
	}
	if stats.FinalSize != plan.Size(out) {
		t.Fatalf("FinalSize %d != returned plan size %d", stats.FinalSize, plan.Size(out))
	}
	if stats.Steps != len(applied) {
		t.Fatalf("Steps %d != len(applied) %d", stats.Steps, len(applied))
	}
}

// TestSearchNoWorseThanGreedy: on the canonical regression queries the search
// engine must reach a plan at least as small as the greedy loop's.
func TestSearchNoWorseThanGreedy(t *testing.T) {
	rw := newRW(t)
	schema := gitlabSchema()
	queries := []string{
		q0,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
	}
	for _, q := range queries {
		p := mustPlan(t, q, schema)
		gOut, _ := rw.GreedyRewrite(p)
		sOut, _, _ := rw.Search(p, Options{})
		if plan.Size(sOut) > plan.Size(gOut) {
			t.Fatalf("%q: search (%d ops) worse than greedy (%d ops):\n  search: %s\n  greedy: %s",
				q, plan.Size(sOut), plan.Size(gOut), plan.ToSQLString(sOut), plan.ToSQLString(gOut))
		}
	}
}

func TestPathLess(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{nil, []int{0}, true},
		{[]int{0}, nil, false},
		{[]int{0}, []int{1}, true},
		{[]int{0, 1}, []int{0, 2}, true},
		{[]int{0, 1}, []int{0, 1}, false},
		{[]int{0, 1}, []int{0, 1, 0}, true},
		{[]int{1}, []int{0, 5}, false},
	}
	for _, c := range cases {
		if got := pathLess(c.a, c.b); got != c.want {
			t.Fatalf("pathLess(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestMemoStopsSizeNeutralCycles: on Table 1's q3 the descent pulls a filter
// above a join (rule 27, sel-pullup-from-join), a size-neutral step that rule
// 28 (sel-pushdown-to-join) undoes. Without the visited memo the descent could
// step back and forth until the step budget; with it, stepping back is a memo
// hit and no plan is stepped to twice.
func TestMemoStopsSizeNeutralCycles(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, `SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`, rw.Schema)
	prov := new(Provenance)
	_, _, stats := rw.Search(p, Options{maxSteps: 24, Provenance: prov})
	steps := append(prov.Steps, prov.Tail...)
	undone := false
	for _, c := range prov.Candidates {
		undone = undone || (c.RuleNo == 28 && c.Fate == CandMemoHit)
	}
	if !undone || stats.MemoHits == 0 || stats.Truncated {
		t.Fatalf("want a finished descent whose pushdown back is a memo hit: %d steps, stats %+v", len(steps), stats)
	}
	cur := EliminateOrderBy(p)
	seen := map[string]bool{plan.Fingerprint(cur): true}
	for i, st := range steps {
		found := false
		for _, c := range rw.Candidates(cur) {
			if c.Rule.No == st.RuleNo && slices.Equal(c.Path, st.Path) {
				cur, found = c.Plan, true
				break
			}
		}
		if !found {
			t.Fatalf("step %d (%+v) does not replay", i, st)
		}
		fp := plan.Fingerprint(cur)
		if seen[fp] {
			t.Fatalf("step %d (rule %d) returns to an earlier plan: %s", i, st.RuleNo, plan.ToSQLString(cur))
		}
		seen[fp] = true
	}
	t.Logf("%d steps, %d memo hits", len(steps), stats.MemoHits)
}
