package sql

import (
	"strings"
	"testing"
)

// TestAppendersMatchFormat pins "the string form and the byte form are the
// same function": the appenders produce Format's and FormatExpr's text, after
// whatever the destination already held. (The corpus-wide version of this
// check lives in internal/plan, which can import the workload.)
func TestAppendersMatchFormat(t *testing.T) {
	queries := append([]string{
		"SELECT id, title AS t FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10)",
		"SELECT T.* FROM T LEFT JOIN (S INNER JOIN U ON S.k = U.k) ON T.k = S.k2",
		"SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY a DESC LIMIT 3",
		"SELECT * FROM (SELECT x FROM u WHERE x > 0) AS d WHERE NOT (d.x < 10 OR d.x IS NULL)",
		"SELECT COUNT(DISTINCT a), -b FROM t WHERE c NOT IN (1, 2.5, 'x', NULL, TRUE) AND EXISTS (SELECT 1 FROM u)",
		"SELECT CASE WHEN a > 0 THEN 1 ELSE 0 END AS sign FROM t WHERE (a, b) IN (SELECT c, d FROM u) AND e = (SELECT MAX(f) FROM v)",
	}, benchQueries...)
	for _, q := range queries {
		s := MustParse(q)
		want := Format(s)
		if got := string(AppendSelect(nil, s)); got != want {
			t.Errorf("AppendSelect(nil) = %q, Format = %q", got, want)
		}
		if got := string(AppendSelect([]byte("-- "), s)); got != "-- "+want {
			t.Errorf("AppendSelect(prefix) = %q, want prefix + %q", got, want)
		}
		for _, e := range []Expr{s.Where, s.Having} {
			if e == nil {
				continue
			}
			if got, want := string(AppendExpr(nil, e)), FormatExpr(e); got != want {
				t.Errorf("AppendExpr = %q, FormatExpr = %q", got, want)
			}
		}
	}
}

// TestAppendExprPositional: members of the binding list print as their
// position wherever the expression reads them — CASE arms, the tested
// expression of IN (SELECT …) and the correlated references of embedded
// statements included; other qualifiers print verbatim, and so does a member
// once a FROM clause inside an embedded statement re-introduces its name.
func TestAppendExprPositional(t *testing.T) {
	s := MustParse(`SELECT * FROM t AS x, u AS y WHERE x.a = y.b AND z.c IN (1, x.d) AND x.e IN (SELECT x.f FROM v)
		AND CASE WHEN x.g > 0 THEN y.h ELSE 0 END = 1 AND NOT EXISTS (SELECT 1 FROM w WHERE w.i = y.j) AND F(y.k) IS NULL
		AND y.l = (SELECT MAX(x.m) FROM w AS x INNER JOIN v ON x.n = y.o WHERE EXISTS (SELECT 1 FROM v AS y WHERE y.p = x.q))`)
	got := string(AppendExprPositional(nil, s.Where, []string{"x", "y"}))
	want := "b0.a = b1.b AND z.c IN (1, b0.d) AND b0.e IN (SELECT b0.f FROM v)" +
		" AND CASE WHEN b0.g > 0 THEN b1.h ELSE 0 END = 1 AND NOT EXISTS (SELECT 1 FROM w WHERE w.i = b1.j) AND F(b1.k) IS NULL" +
		" AND b1.l = (SELECT MAX(x.m) FROM w AS x INNER JOIN v ON x.n = b1.o WHERE EXISTS (SELECT 1 FROM v AS y WHERE y.p = x.q))"
	if got != want {
		t.Errorf("positional:\n got %s\nwant %s", got, want)
	}
	if got, want := string(AppendExprPositional(nil, s.Where, nil)), FormatExpr(s.Where); got != want {
		t.Errorf("nil bindings must be AppendExpr:\n got %s\nwant %s", got, want)
	}
}

// TestFormatAllocBudget keeps the wrappers at one allocation (the returned
// string) for text that fits their stack buffer, and bounded beyond it.
func TestFormatAllocBudget(t *testing.T) {
	short := MustParse(benchQueries[0])
	if n := testing.AllocsPerRun(100, func() { _ = Format(short) }); n > 1 {
		t.Errorf("Format of a %d-byte statement: %v allocs, want 1", len(Format(short)), n)
	}
	long := MustParse("SELECT * FROM t WHERE a IN (" + strings.Repeat("1, ", 200) + "1)")
	if n := testing.AllocsPerRun(100, func() { _ = Format(long) }); n > 4 {
		t.Errorf("Format of a %d-byte statement: %v allocs, want <= 4", len(Format(long)), n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = FormatExpr(short.Where) }); n > 1 {
		t.Errorf("FormatExpr: %v allocs, want 1", n)
	}
}
