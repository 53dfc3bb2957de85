package sql

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseSimpleSelect(t *testing.T) {
	s, err := Parse("SELECT id, name FROM users WHERE age > 18")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(s.Items))
	}
	tn, ok := s.From.(*TableName)
	if !ok || tn.Name != "users" {
		t.Fatalf("from = %#v, want users", s.From)
	}
	cmp, ok := s.Where.(*BinaryExpr)
	if !ok || cmp.Op != ">" {
		t.Fatalf("where = %#v, want > comparison", s.Where)
	}
}

func TestParseStar(t *testing.T) {
	s := MustParse("SELECT * FROM t")
	if !s.Items[0].Star || s.Items[0].StarTable != "" {
		t.Fatalf("expected bare star, got %#v", s.Items[0])
	}
	s = MustParse("SELECT t.* FROM t")
	if !s.Items[0].Star || s.Items[0].StarTable != "t" {
		t.Fatalf("expected t.*, got %#v", s.Items[0])
	}
}

func TestParseJoins(t *testing.T) {
	cases := []struct {
		src  string
		kind JoinKind
	}{
		{"SELECT * FROM a JOIN b ON a.x = b.y", InnerJoin},
		{"SELECT * FROM a INNER JOIN b ON a.x = b.y", InnerJoin},
		{"SELECT * FROM a LEFT JOIN b ON a.x = b.y", LeftJoin},
		{"SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y", LeftJoin},
		{"SELECT * FROM a RIGHT JOIN b ON a.x = b.y", RightJoin},
		{"SELECT * FROM a CROSS JOIN b", CrossJoin},
		{"SELECT * FROM a, b", CrossJoin},
	}
	for _, c := range cases {
		s, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		j, ok := s.From.(*JoinExpr)
		if !ok {
			t.Fatalf("%s: from is %T", c.src, s.From)
		}
		if j.Kind != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.src, j.Kind, c.kind)
		}
	}
}

func TestParseInSubquery(t *testing.T) {
	s := MustParse("SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)")
	conj := SplitConjuncts(s.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %d, want 2", len(conj))
	}
	in, ok := conj[1].(*InSubquery)
	if !ok {
		t.Fatalf("second conjunct is %T, want InSubquery", conj[1])
	}
	if in.Negated {
		t.Error("unexpected NOT IN")
	}
	if in.Select.Where == nil {
		t.Error("subquery WHERE missing")
	}
}

func TestParseNestedSubqueryWithOrderBy(t *testing.T) {
	// Table 1 q0 from the paper.
	src := `SELECT * FROM labels WHERE id IN (
	          SELECT id FROM labels WHERE id IN (
	            SELECT id FROM labels WHERE project_id = 10
	          ) ORDER BY title ASC)`
	s := MustParse(src)
	in := s.Where.(*InSubquery)
	if len(in.Select.OrderBy) != 1 {
		t.Fatalf("inner ORDER BY items = %d, want 1", len(in.Select.OrderBy))
	}
	inner := in.Select.Where.(*InSubquery)
	if inner.Select.Where == nil {
		t.Fatal("innermost WHERE missing")
	}
}

func TestParseGroupByHaving(t *testing.T) {
	s := MustParse("SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING COUNT(*) > 3 ORDER BY n DESC LIMIT 10")
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Fatalf("group by/having not parsed: %#v", s)
	}
	if s.Limit == nil || *s.Limit != 10 {
		t.Fatalf("limit = %v, want 10", s.Limit)
	}
	if !s.OrderBy[0].Desc {
		t.Error("order by should be DESC")
	}
	f := s.Items[1].Expr.(*FuncCall)
	if f.Name != "COUNT" || !f.Star {
		t.Fatalf("aggregate item = %#v", f)
	}
}

func TestParseUnion(t *testing.T) {
	s := MustParse("SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY a")
	if s.SetOp != "UNION ALL" {
		t.Fatalf("setop = %q", s.SetOp)
	}
	if len(s.OrderBy) != 1 {
		t.Fatalf("order by on compound missing")
	}
}

func TestParseExistsAndNot(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.x = t.x)")
	u, ok := s.Where.(*UnaryExpr)
	if !ok || u.Op != "NOT" {
		t.Fatalf("where = %#v", s.Where)
	}
	if _, ok := u.E.(*ExistsExpr); !ok {
		t.Fatalf("inner = %T, want ExistsExpr", u.E)
	}
}

func TestParsePrecedence(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op = %#v, want OR", s.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR = %#v, want AND", or.R)
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a BETWEEN 1 AND 5")
	and := s.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("between should desugar to AND, got %s", and.Op)
	}
}

func TestParseParamsNumbered(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a = ? AND b = ?")
	conj := SplitConjuncts(s.Where)
	p0 := conj[0].(*BinaryExpr).R.(*Param)
	p1 := conj[1].(*BinaryExpr).R.(*Param)
	if p0.Index != 0 || p1.Index != 1 {
		t.Fatalf("param indexes = %d, %d", p0.Index, p1.Index)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a = ",
		"SELECT * FROM t WHERE a IN (",
		"SELECT * FROM t extra garbage ,",
		"SELECT * FROM t WHERE a = 'unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT * FROM labels WHERE project_id = 10",
		"SELECT id, title AS t FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10)",
		"SELECT n.* FROM notes AS n WHERE n.type = 'D' AND n.id IN (SELECT m.id FROM notes AS m WHERE m.commit_id = 7)",
		"SELECT T.* FROM T LEFT JOIN S ON T.k = S.k2",
		"SELECT DISTINCT x.k FROM R AS x WHERE x.a > 12",
		"SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 3",
		"SELECT a FROM t UNION SELECT b FROM u",
		"SELECT * FROM t WHERE a IS NOT NULL AND b IN (1, 2, 3)",
		"SELECT * FROM t WHERE NOT (a = 1 OR b = 2)",
		"SELECT * FROM (SELECT x FROM u WHERE x > 0) AS d WHERE d.x < 10",
		"SELECT * FROM t ORDER BY a ASC, b DESC LIMIT 5",
		"SELECT COUNT(DISTINCT a) FROM t",
		"SELECT CASE WHEN a > 0 THEN 1 ELSE 0 END AS sign FROM t",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		out1 := Format(s1)
		s2, err := Parse(out1)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", out1, q, err)
		}
		out2 := Format(s2)
		if out1 != out2 {
			t.Errorf("round trip unstable:\n  first:  %s\n  second: %s", out1, out2)
		}
	}
}

// TestFormatReparsesToParsed requires printed SQL to parse back to the very
// statement that was parsed, identifiers that need quoting included, and
// every lexer error to be a *ParseError at the offending byte.
func TestFormatReparsesToParsed(t *testing.T) {
	for _, c := range []struct {
		q     string
		errAt int // -1: the query parses
		msg   string
	}{
		{q: `SELECT "a b" FROM t`, errAt: -1},
		{q: `SELECT "select" FROM t`, errAt: -1},
		{q: `SELECT "from"."select", "Where" AS "order", "1x" AS "" FROM "from" AS "group by"`, errAt: -1},
		{q: `SELECT "a b".* FROM "a b" JOIN (SELECT "é" FROM u) AS "d d" ON "a b".k = "d d"."é"`, errAt: -1},
		{q: "SELECT `a\"b`, \"a`b\", \"f g\"(x), \"\" FROM t", errAt: -1},
		{q: "SELECT \"\xdc\"() FROM t", errAt: -1},
		{q: "SELECT 'it''s', '''' FROM t", errAt: -1},
		{q: "SELECT -0., 1.0, 2.50, 1000000000000000000000.5 FROM t", errAt: -1},
		{q: "(SELECT a FROM t ORDER BY a LIMIT 1) UNION (SELECT b FROM u UNION ALL SELECT c FROM v)", errAt: -1},
		// A minus directly before a number is the number's sign, so the one
		// int64 whose digits alone overflow parses and prints back.
		{q: "SELECT * FROM t WHERE a = -9223372036854775808 AND b = - - 5 AND c = -(2.5)", errAt: -1},
		{q: "SELECT -9223372036854775809 FROM t", errAt: 8, msg: "bad number"},
		{q: "SELECT - -9223372036854775808 FROM t", errAt: 7, msg: "out of range"},
		{q: "SELECT \xdc()", errAt: 7, msg: `"\xdc"`},
		{q: "SELECT é FROM t", errAt: 7, msg: `"é"`},
		{q: "SELECT 'abc", errAt: 7},
		{q: "SELECT 'it''s", errAt: 7},
		{q: `SELECT "abc`, errAt: 7},
		{q: "SELECT a FROM t WHERE a # 1", errAt: 24},
	} {
		s, err := Parse(c.q)
		if c.errAt >= 0 {
			var pe *ParseError
			if !errors.As(err, &pe) || pe.Offset != c.errAt || !strings.Contains(pe.Msg, c.msg) {
				t.Errorf("Parse(%q) = %v, want a *ParseError at offset %d mentioning %s", c.q, err, c.errAt, c.msg)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.q, err)
			continue
		}
		out := Format(s)
		if s2, err := Parse(out); err != nil || !reflect.DeepEqual(s, s2) {
			t.Errorf("Parse(%q) printed as %q, which reparses differently (err %v)", c.q, out, err)
		}
	}
}

// TestParseMinInt64Literal: -9223372036854775808 is one literal holding
// math.MinInt64, not a minus over an integer that does not fit.
func TestParseMinInt64Literal(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a = -9223372036854775808")
	if lit, ok := s.Where.(*BinaryExpr).R.(*Literal); !ok || lit.Val != NewInt(math.MinInt64) {
		t.Fatalf("right operand = %#v, want the literal %d", s.Where.(*BinaryExpr).R, int64(math.MinInt64))
	}
}

// TestParseNestingBound: a statement nested MaxNesting levels parses; one
// nested deeper is a *ParseError at the token that goes one level too deep,
// however much deeper it nests (the lexer stops reading there). A WHERE
// clause is two levels deep (the statement and the expression), and each
// parenthesis adds one.
func TestParseNestingBound(t *testing.T) {
	const where = "SELECT * FROM t WHERE "
	nested := func(parens int) string {
		return where + strings.Repeat("(", parens) + "a = 1" + strings.Repeat(")", parens)
	}
	if _, err := Parse(nested(MaxNesting - 2)); err != nil {
		t.Fatalf("%d levels: %v", MaxNesting, err)
	}
	for _, parens := range []int{MaxNesting - 1, 100 * MaxNesting} {
		_, err := Parse(nested(parens))
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Offset != len(where)+MaxNesting-1 || !strings.Contains(pe.Msg, "nests deeper") {
			t.Errorf("%d levels: %v, want a *ParseError at offset %d", parens+2, err, len(where)+MaxNesting-1)
		}
	}
}

// TestParseTokenBound: a statement of MaxTokens tokens parses; one of
// MaxTokens+1 is a *ParseError at its last token, and so is a far longer one
// at the same token. An error before the bound is reported rather than the
// length, so that a statement nested too deeply is refused for its nesting.
func TestParseTokenBound(t *testing.T) {
	// "SELECT a" and " FROM t" are two tokens each, every ", a" two more and
	// a closing ";" one.
	statement := func(tokens int) string {
		s := "SELECT a" + strings.Repeat(", a", (tokens-4)/2) + " FROM t"
		if tokens%2 == 1 {
			s += ";"
		}
		return s
	}
	if _, err := Parse(statement(MaxTokens)); err != nil {
		t.Fatalf("%d tokens: %v", MaxTokens, err)
	}
	over := statement(MaxTokens + 1)
	for _, src := range []string{over, over + strings.Repeat(" a", 100*MaxTokens)} {
		_, err := Parse(src)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Offset != len(over)-1 || pe.Msg != "statement has more than "+strconv.Itoa(MaxTokens)+" tokens" {
			t.Errorf("%d bytes: %v, want a *ParseError at offset %d", len(src), err, len(over)-1)
		}
	}
	_, err := Parse("SELECT , " + over)
	if pe := (*ParseError)(nil); !errors.As(err, &pe) || pe.Offset != len("SELECT ") {
		t.Errorf("an error before the bound: %v, want it at offset %d", err, len("SELECT "))
	}
}

func TestFormatParenthesization(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	out := Format(s)
	if !strings.Contains(out, "(") {
		t.Errorf("lost parentheses: %s", out)
	}
	s2 := MustParse(out)
	and := s2.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("reparse changed precedence: %s", out)
	}
}

func TestCommentsSkipped(t *testing.T) {
	s := MustParse("SELECT a -- trailing comment\nFROM t")
	if len(s.Items) != 1 {
		t.Fatalf("items = %d", len(s.Items))
	}
}

// TestKeywordLookup checks the keyword table: every keyword is found in any
// case, and words that are not keywords, prefixes and extensions of keywords
// included, are not.
func TestKeywordLookup(t *testing.T) {
	n := 0
	for _, e := range keywords {
		if e.code == 0 {
			continue
		}
		n++
		for _, w := range []string{e.text, strings.ToLower(e.text), strings.ToLower(e.text[:1]) + e.text[1:]} {
			if got, ok := keywordLookup(w); !ok || got != e.text {
				t.Errorf("keywordLookup(%q) = %q, %v; want %q", w, got, ok, e.text)
			}
		}
		for _, w := range []string{e.text[1:], e.text + "S", "_" + e.text, e.text + "1"} {
			if _, ok := keywordLookup(w); ok {
				t.Errorf("keywordLookup(%q) found a keyword", w)
			}
		}
	}
	if n != 37 {
		t.Errorf("keyword table holds %d keywords, want 37", n)
	}
}
