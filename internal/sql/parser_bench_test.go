package sql

import "testing"

// benchQueries mirror the workload corpus's shape mix: joins, IN-subqueries,
// parameters, ORDER BY/LIMIT, string literals.
var benchQueries = []string{
	"SELECT a.id, a.name FROM account AS a WHERE a.deleted = FALSE AND a.org = ? ORDER BY a.id LIMIT 50",
	"SELECT DISTINCT u.email FROM users AS u INNER JOIN orders AS o ON u.id = o.user_id WHERE o.total > 100 AND o.state = 'paid'",
	"SELECT t.x FROM t WHERE t.y IN (SELECT s.y FROM s WHERE s.z = ? ORDER BY s.w) AND t.k LIKE 'pre%'",
	"SELECT COUNT(*) FROM ev AS e WHERE e.kind = ? AND e.at BETWEEN ? AND ? GROUP BY e.day HAVING COUNT(*) > 1",
}

// parseAll and lexAll are one lap over benchQueries. lexAll lexes into a
// caller's buffer, as Parse does into a stack buffer.
func parseAll() error {
	for _, q := range benchQueries {
		if _, err := Parse(q); err != nil {
			return err
		}
	}
	return nil
}

func lexAll(buf []token) error {
	for _, q := range benchQueries {
		if _, err := lex(buf[:0], q, MaxTokens); err != nil {
			return err
		}
	}
	return nil
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := parseAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLex(b *testing.B) {
	b.ReportAllocs()
	var buf [64]token
	for i := 0; i < b.N; i++ {
		if err := lexAll(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocBudget pins what the front end's benchmarks allocate per op:
// a lap of Parse over benchQueries (the AST nodes), a lap of lex into a
// reused buffer, and NormalizeQuery on already-normal text (returned as is)
// and on raw text (the new string and its builder).
func TestParseAllocBudget(t *testing.T) {
	if err := parseAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]token, 64)
	for _, c := range []struct {
		name   string
		allocs float64
		op     func()
	}{
		{"Parse lap", 32, func() { _ = parseAll() }},
		{"lex lap", 0, func() { _ = lexAll(buf) }},
		{"NormalizeQuery fast", 0, func() { NormalizeQuery(normalizedQuery) }},
		{"NormalizeQuery slow", 2, func() { NormalizeQuery(rawQuery) }},
	} {
		if got := testing.AllocsPerRun(100, c.op); got != c.allocs {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.allocs)
		}
	}
}
