package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
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
// allocates inside s.Handler(): for a result-cache hit; for a result-cache
// miss at server defaults, where every run sends a new literal so each
// request parses, plans, searches and fills the cache; and for a server with
// the cache off. A regression fails here, not only in BenchmarkHandleRewrite.
func TestHandleRewriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const prefix, suffix = `{"sql": "SELECT DISTINCT id FROM labels WHERE project_id = `, `"}`
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		fresh  bool // a new literal on every run
		budget float64
	}{
		{"result-cache hit", nil, false, 12},
		{"result-cache miss", nil, true, 34},
		{"no cache", func(c *Config) { c.ResultCacheSize = -1 }, false, 32},
	} {
		s, _, _ := newTestServer(t, c.mutate)
		rb := &rewindBody{}
		req := httptest.NewRequest(http.MethodPost, "/v1/rewrite", rb)
		w := &nullWriter{h: http.Header{}}
		h := s.Handler()
		body := make([]byte, 0, 128)
		lit := int64(7)
		serve := func() {
			if c.fresh {
				lit++
			}
			body = append(strconv.AppendInt(append(body[:0], prefix...), lit, 10), suffix...)
			rb.Reset(body)
			clear(w.h)
			h.ServeHTTP(w, req)
		}
		serve() // fills the cache and the pools
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, w.code)
		}
		n := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %v allocations per request", c.name, n)
		if n > c.budget {
			t.Errorf("%s: the handler allocates %v times per request, budget %v", c.name, n, c.budget)
		}
	}
}
