package sql

import "testing"

func TestNormalizeQuery(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"SELECT 1", "SELECT 1"},
		{"  SELECT 1  ", "SELECT 1"},
		{"SELECT 1;", "SELECT 1"},
		{"SELECT 1 ; ", "SELECT 1"},
		{"SELECT\n\t1", "SELECT 1"},
		{"SELECT  a ,\n b FROM t", "SELECT a , b FROM t"},
		{"select * from t where x = 'a  b'", "select * from t where x = 'a  b'"},
		{"select  *  from t where x = 'a  b'", "select * from t where x = 'a  b'"},
		{`select "we  ird" from t`, `select "we  ird" from t`},
		{"select 'it''s  ok'  from t", "select 'it''s  ok' from t"},
		{"select 'unterminated  lit", "select 'unterminated  lit"},
		{"SELECT 1\r\n;\r\n", "SELECT 1"},
		{";", ""},
		{" \t\n ", ""},
	}
	for _, c := range cases {
		if got := NormalizeQuery(c.in); got != c.want {
			t.Errorf("NormalizeQuery(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Already-normalized input must come back as the identical string (the
// zero-allocation fast path) — and normalization must be idempotent.
func TestNormalizeQueryIdempotent(t *testing.T) {
	ins := []string{
		"SELECT a, b FROM t WHERE x = 'a  b' AND y > 3",
		"  SELECT  * FROM t ;",
		"select 'it''s' from \"ta  ble\"",
	}
	for _, in := range ins {
		once := NormalizeQuery(in)
		twice := NormalizeQuery(once)
		if once != twice {
			t.Errorf("not idempotent: %q -> %q -> %q", in, once, twice)
		}
	}
}

// normalizedQuery takes NormalizeQuery's fast path (already normal, returned
// as is); rawQuery its slow path (runs of whitespace, a trailing semicolon).
const (
	normalizedQuery = "SELECT a, b FROM t JOIN u ON t.id = u.id WHERE t.x = 'lit' AND u.y > 3"
	rawQuery        = "SELECT a,  b\nFROM t JOIN u ON t.id = u.id\nWHERE t.x = 'lit'  AND u.y > 3;"
)

func BenchmarkNormalizeQueryFast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormalizeQuery(normalizedQuery)
	}
}

func BenchmarkNormalizeQuerySlow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormalizeQuery(rawQuery)
	}
}
