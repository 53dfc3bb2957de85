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

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := benchQueries[i%len(benchQueries)]
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLex lexes into a stack buffer, as Parse does.
func BenchmarkLex(b *testing.B) {
	b.ReportAllocs()
	var buf [64]token
	for i := 0; i < b.N; i++ {
		q := benchQueries[i%len(benchQueries)]
		if _, err := lex(buf[:0], q, MaxTokens); err != nil {
			b.Fatal(err)
		}
	}
}
