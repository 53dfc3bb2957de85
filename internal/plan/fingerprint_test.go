package plan

import (
	"fmt"
	"testing"

	"wetune/internal/sql"
	"wetune/internal/workload"
)

// corpusPlans builds every plannable query of the 2 464-query rewrite corpus,
// with the statement it was built from.
func corpusPlans(t testing.TB) (plans []Node, stmts []*sql.SelectStmt) {
	t.Helper()
	schemas, items := workload.RewriteCorpus(100)
	for _, it := range items {
		stmt, err := sql.Parse(it.SQL)
		if err != nil {
			continue
		}
		p, err := Build(stmt, schemas[it.App])
		if err != nil {
			continue
		}
		plans = append(plans, p)
		stmts = append(stmts, stmt)
	}
	if len(plans) < 2000 {
		t.Fatalf("only %d corpus queries plan", len(plans))
	}
	return plans, stmts
}

// nodeExprs lists the expressions a node's fingerprint renders.
func nodeExprs(n Node) []sql.Expr {
	var out []sql.Expr
	switch x := n.(type) {
	case *Proj:
		for _, it := range x.Items {
			out = append(out, it.Expr)
		}
	case *Sel:
		out = append(out, x.Pred)
	case *Join:
		if x.On != nil {
			out = append(out, x.On)
		}
	case *Agg:
		for _, it := range x.Items {
			if it.Arg != nil {
				out = append(out, it.Arg)
			}
		}
		if x.Having != nil {
			out = append(out, x.Having)
		}
	}
	return out
}

// TestAppendersMatchStringForms pins "same bytes" over the whole corpus: for
// every plan and every subplan AppendFingerprint produces Fingerprint's text,
// for every expression in them AppendExpr produces FormatExpr's, and for every
// statement (parsed, and printed from the plan and parsed again) AppendSelect
// produces Format's.
func TestAppendersMatchStringForms(t *testing.T) {
	plans, stmts := corpusPlans(t)
	var buf []byte
	subplans, exprs := 0, 0
	for i, p := range plans {
		Walk(p, func(n Node) bool {
			subplans++
			buf = AppendFingerprint(buf[:0], n)
			if want := Fingerprint(n); string(buf) != want {
				t.Fatalf("AppendFingerprint = %q, Fingerprint = %q", buf, want)
			}
			for _, e := range nodeExprs(n) {
				exprs++
				buf = sql.AppendExpr(buf[:0], e)
				if want := sql.FormatExpr(e); string(buf) != want {
					t.Fatalf("AppendExpr = %q, FormatExpr = %q", buf, want)
				}
			}
			return true
		})
		for _, s := range []*sql.SelectStmt{stmts[i], sql.MustParse(ToSQLString(p))} {
			buf = sql.AppendSelect(buf[:0], s)
			if want := sql.Format(s); string(buf) != want {
				t.Fatalf("AppendSelect = %q, Format = %q", buf, want)
			}
		}
	}
	t.Logf("%d plans, %d subplans, %d expressions", len(plans), subplans, exprs)
}

// TestChildAccessorsAgreeWithChildren covers all eleven node kinds.
func TestChildAccessorsAgreeWithChildren(t *testing.T) {
	a := &Scan{Table: "a", Binding: "a"}
	b := &Scan{Table: "b", Binding: "b"}
	nodes := []Node{
		a,
		&Proj{In: a},
		&Sel{In: a},
		&InSub{In: a, Sub: b},
		&Join{L: a, R: b},
		&Dedup{In: a},
		&Agg{In: a},
		&Union{L: a, R: b},
		&Sort{In: a},
		&Limit{In: a},
		&Derived{Binding: "d", In: a},
	}
	kinds := map[Kind]bool{}
	for _, n := range nodes {
		kinds[n.Kind()] = true
		ch := n.Children()
		if NumChildren(n) != len(ch) {
			t.Errorf("%v: NumChildren = %d, len(Children()) = %d", n.Kind(), NumChildren(n), len(ch))
			continue
		}
		for i, c := range ch {
			if Child(n, i) != c {
				t.Errorf("%v: Child(%d) differs from Children()[%d]", n.Kind(), i, i)
			}
		}
	}
	if len(kinds) != int(KDerived)+1 {
		t.Errorf("covered %d node kinds, want %d", len(kinds), int(KDerived)+1)
	}
}

// TestAppendBindingsFirstAppearance: distinct Scan/Derived bindings in
// preorder, which is also their order in the fingerprint text.
func TestAppendBindingsFirstAppearance(t *testing.T) {
	p := build(t, `SELECT n.id FROM notes AS n INNER JOIN (SELECT id FROM labels) AS d ON n.id = d.id
		WHERE n.commit_id IN (SELECT m.commit_id FROM notes AS m INNER JOIN notes AS n ON m.id = n.id)`)
	got := AppendBindings(nil, p)
	want := []string{"n", "d", "labels", "m"}
	if len(got) != len(want) {
		t.Fatalf("AppendBindings = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendBindings = %q, want %q", got, want)
		}
	}
}

// TestFingerprintDistinguishesDistinctAggregates: COUNT(DISTINCT a) and
// COUNT(a) are different queries, so their plans must not be Equal (they were:
// the fingerprint dropped AggItem.Distinct).
func TestFingerprintDistinguishesDistinctAggregates(t *testing.T) {
	for _, f := range []string{"COUNT", "SUM"} {
		plain := build(t, "SELECT "+f+"(project_id) FROM labels")
		distinct := build(t, "SELECT "+f+"(DISTINCT project_id) FROM labels")
		if Equal(plain, distinct) {
			t.Errorf("%s(DISTINCT a) and %s(a) share the fingerprint %q", f, f, Fingerprint(plain))
		}
		if !Equal(distinct, build(t, "SELECT "+f+"(DISTINCT project_id) FROM labels")) {
			t.Errorf("%s(DISTINCT a) is not equal to itself", f)
		}
	}
}

// TestAliasFingerprintInsideCaseAndSubqueries decides ROADMAP item 9's last
// bullet: a qualifier inside a CASE arm, the tested expression of a kept IN
// (SELECT …) or a correlated reference of an embedded statement that is not
// written positionally is a bug — two plans that differ only in the alias used
// there are the same plan up to aliases. Two that read different instances of
// a self-join there are not.
func TestAliasFingerprintInsideCaseAndSubqueries(t *testing.T) {
	alias := func(q string) string {
		p := build(t, q)
		return string(AppendAliasFingerprint(nil, p, AppendBindings(nil, p)))
	}
	for _, where := range []string{
		"CASE WHEN %[1]s.commit_id > 0 THEN %[1]s.id ELSE 0 END = 1",
		"%[1]s.id NOT IN (SELECT labels.id FROM labels)",
		"EXISTS (SELECT 1 FROM labels WHERE labels.id = %[1]s.commit_id)",
		"%[2]s.id < (SELECT MAX(labels.id) FROM labels WHERE labels.project_id = %[1]s.commit_id)",
	} {
		const from = "SELECT %[1]s.id FROM notes AS %[1]s INNER JOIN notes AS %[2]s ON %[1]s.id = %[2]s.commit_id WHERE "
		xy, uv := fmt.Sprintf(from+where, "x", "y"), fmt.Sprintf(from+where, "u", "v")
		if alias(xy) != alias(uv) {
			t.Errorf("differ only in aliases, fingerprints differ:\n  %s\n  %s", alias(xy), alias(uv))
		}
		// The same text reading the other side of the self-join.
		if other := fmt.Sprintf(from, "x", "y") + fmt.Sprintf(where, "y", "x"); alias(xy) == alias(other) {
			t.Errorf("read different instances of the self-join, fingerprints equal:\n  %s", alias(other))
		}
	}
}

// benchPlan is a join over an IN-subquery with a derived table: every
// fingerprint and printer branch the corpus's expensive shapes take.
const benchPlanSQL = `SELECT i.title, p.name FROM issues AS i INNER JOIN projects AS p ON i.project_id = p.id
	WHERE p.id IN (SELECT l.project_id FROM labels AS l WHERE l.title = 'bug' AND l.id > 10) AND i.id < 1000
	ORDER BY i.id DESC LIMIT 20`

// TestFingerprintAllocBudget: the string wrappers cost the returned string
// and nothing else while the text fits their stack buffer.
func TestFingerprintAllocBudget(t *testing.T) {
	p := build(t, benchPlanSQL)
	if n := len(Fingerprint(p)); n > 256 {
		t.Fatalf("benchmark plan fingerprint grew to %d bytes; the budget below assumes it fits the stack buffer", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Fingerprint(p) }); n > 1 {
		t.Errorf("Fingerprint: %v allocs, want 1", n)
	}
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() { buf = AppendFingerprint(buf[:0], p) }); n != 0 {
		t.Errorf("AppendFingerprint into sufficient scratch: %v allocs, want 0", n)
	}
	total := 0
	if n := testing.AllocsPerRun(100, func() { total += Size(p) }); n != 0 {
		t.Errorf("Size: %v allocs, want 0 (child access must not allocate)", n)
	}
}

var benchSink string

func BenchmarkFingerprint(b *testing.B) {
	p := build(b, benchPlanSQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Fingerprint(p)
	}
}

var buildSink Node

func BenchmarkBuild(b *testing.B) {
	stmt, schema := sql.MustParse(benchPlanSQL), testSchema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSink = MustBuild(stmt, schema)
	}
}

func BenchmarkToSQLString(b *testing.B) {
	p := build(b, benchPlanSQL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = ToSQLString(p)
	}
}
