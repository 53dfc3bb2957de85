package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/sql"
)

// newBenchServer builds a server like newTestServer does, but for benchmarks
// (testSchema is pinned to *testing.T).
func newBenchServer(b *testing.B, mutate func(*Config)) *Server {
	b.Helper()
	schema, err := sql.ParseDDL(`
		CREATE TABLE labels (
			id INT NOT NULL PRIMARY KEY,
			title VARCHAR(100),
			project_id INT
		);
	`)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Schemas:  map[string]*sql.Schema{"demo": schema},
		Registry: obs.NewRegistry(),
		Journal:  journal.New(1 << 10),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchDo(b *testing.B, s *Server, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/rewrite", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status = %d; body: %s", rec.Code, rec.Body)
	}
}

// BenchmarkHandleRewrite measures the whole single-query request path —
// decode, admission, caches, search, pooled JSON encode. Distinct project ids
// rotate through a window larger than nothing (all hit the result cache after
// the first lap), so this is the dominant steady-state serving cost.
func BenchmarkHandleRewrite(b *testing.B) {
	s := newBenchServer(b, nil)
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"sql": "SELECT DISTINCT id FROM labels WHERE project_id = %d"}`, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, s, bodies[i%len(bodies)])
	}
}

// BenchmarkHandleRewriteCold disables the result cache so every request pays
// parse + search — the floor the pooling work moves.
func BenchmarkHandleRewriteCold(b *testing.B) {
	s := newBenchServer(b, func(c *Config) { c.ResultCacheSize = -1 })
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"sql": "SELECT DISTINCT id FROM labels WHERE project_id = %d"}`, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, s, bodies[i%len(bodies)])
	}
}

// BenchmarkHandleRewriteBatch measures the parallel batch path: one request
// carrying 16 queries fanned out across the worker pool.
func BenchmarkHandleRewriteBatch(b *testing.B) {
	s := newBenchServer(b, nil)
	var buf bytes.Buffer
	buf.WriteString(`{"queries": [`)
	for i := 0; i < 16; i++ {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, `{"sql": "SELECT DISTINCT id FROM labels WHERE project_id = %d"}`, i)
	}
	buf.WriteString(`]}`)
	body := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDo(b, s, body)
	}
}
