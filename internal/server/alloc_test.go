package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// rewindBody is a request body that can be replayed: every run of an
// allocation measurement reads the same bytes without building a request.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// nullWriter is the least a handler can write to: a reused header map and a
// body that goes nowhere, so a measurement counts the handler's allocations
// and none of net/http's or a recorder's.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }

// TestHandleRewriteAllocBudget pins what one single-query POST /v1/rewrite
// allocates inside s.Handler(): for a result-cache hit, and for a server with
// both cache tiers off, where every request parses, plans and searches. A
// regression fails here, not only in BenchmarkHandleRewrite.
func TestHandleRewriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	body := []byte(`{"sql": "SELECT DISTINCT id FROM labels WHERE project_id = 7"}`)
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		budget float64
	}{
		{"result-cache hit", nil, 12},
		{"no cache", func(c *Config) { c.ResultCacheSize, c.PlanCacheSize = -1, -1 }, 38},
	} {
		s, _, _ := newTestServer(t, c.mutate)
		rb := &rewindBody{}
		req := httptest.NewRequest(http.MethodPost, "/v1/rewrite", rb)
		w := &nullWriter{h: http.Header{}}
		h := s.Handler()
		serve := func() {
			rb.Reset(body)
			clear(w.h)
			h.ServeHTTP(w, req)
		}
		serve() // fills the cache and the pools
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, w.code)
		}
		if n := testing.AllocsPerRun(200, serve); n > c.budget {
			t.Errorf("%s: the handler allocates %v times per request, budget %v", c.name, n, c.budget)
		}
	}
}
