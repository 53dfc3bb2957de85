package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wetune/internal/obs/journal"
)

// decodeError unwraps the uniform {"error": {...}} body.
func decodeError(t *testing.T, body string) apiError {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("error body is not the uniform shape: %v\n%s", err, body)
	}
	return eb.Error
}

// TestOversizedBody413 checks the body-size limit: a request over
// MaxBodyBytes answers 413 with code too_large, and the limit is the
// configured one.
func TestOversizedBody413(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 256 })
	big := fmt.Sprintf(`{"sql": "SELECT id FROM labels WHERE title = '%s'"}`, strings.Repeat("x", 512))
	rec := do(s, http.MethodPost, "/v1/rewrite", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if e := decodeError(t, rec.Body.String()); e.Code != codeTooLarge {
		t.Errorf("code = %q, want %q", e.Code, codeTooLarge)
	}
}

// TestOversizedBatch413 checks the batch bound: more queries than MaxBatch
// answers 413 without consuming a worker.
func TestOversizedBatch413(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) { c.MaxBatch = 4 })
	var qs []string
	for i := 0; i < 5; i++ {
		qs = append(qs, `{"sql": "SELECT id FROM labels"}`)
	}
	body := fmt.Sprintf(`{"queries": [%s]}`, strings.Join(qs, ","))
	rec := do(s, http.MethodPost, "/v1/rewrite", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if e := decodeError(t, rec.Body.String()); e.Code != codeTooLarge {
		t.Errorf("code = %q, want %q", e.Code, codeTooLarge)
	}
}

// TestBadRequests400 sweeps the malformed-request space. A body is exactly
// one JSON value: nothing, only whitespace, or a second value after the first
// is malformed, never a request for the first query alone.
func TestBadRequests400(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	cases := []struct {
		name, body string
		wantCode   string
	}{
		{"malformed JSON", `{"sql": `, codeBadRequest},
		{"empty body", `{}`, codeBadRequest},
		{"no body", ``, codeBadRequest},
		{"whitespace-only body", " \n\t ", codeBadRequest},
		{"trailing second value", `{"sql": "SELECT 1"} {"sql": "SELECT 2"}`, codeBadRequest},
		{"both sql and queries", `{"sql": "SELECT 1 FROM labels", "queries": [{"sql": "SELECT 1 FROM labels"}]}`, codeBadRequest},
		{"unknown app", `{"sql": "SELECT id FROM labels", "app": "nope"}`, codeUnknownApp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(s, http.MethodPost, "/v1/rewrite", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", rec.Code, rec.Body)
			}
			if e := decodeError(t, rec.Body.String()); e.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Code, tc.wantCode)
			}
		})
	}
}

// TestUnparsableSQL422 checks the parse failure contract: 422, code
// invalid_sql, and the parser's byte offset surfaced as "position" — for
// lexer errors too.
func TestUnparsableSQL422(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	for _, body := range []string{
		`{"sql": "SELECT FROM"}`, // the select list is missing at offset 7
		`{"sql": "SELECT 'abc"}`, // the unterminated literal starts at offset 7
	} {
		rec := do(s, http.MethodPost, "/v1/rewrite", body)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status = %d, want 422; body: %s", body, rec.Code, rec.Body)
		}
		e := decodeError(t, rec.Body.String())
		if e.Code != codeInvalidSQL {
			t.Errorf("%s: code = %q, want %q", body, e.Code, codeInvalidSQL)
		}
		if e.Position == nil {
			t.Errorf("%s: parse error lost its position", body)
		} else if *e.Position != 7 {
			t.Errorf("%s: position = %d, want 7", body, *e.Position)
		}
	}
}

// TestDeadlineDuringSearch504 checks deadline propagation into the search: a
// request whose budget expires mid-rewrite answers 504 with the partial
// result's Truncated stats attached — not an empty error.
func TestDeadlineDuringSearch504(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) {
		c.beforeRewrite = func(string) { time.Sleep(20 * time.Millisecond) }
	})
	rec := do(s, http.MethodPost, "/v1/rewrite",
		`{"sql": "SELECT DISTINCT id FROM labels", "timeout_ms": 5}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", rec.Code, rec.Body)
	}
	var res rewriteResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || res.Stats.TruncatedBy != "deadline" {
		t.Errorf("stats = %+v, want Truncated by deadline", res.Stats)
	}
	if res.Output == "" {
		t.Error("a deadline-truncated rewrite must still return the best SQL found")
	}
}

// TestHugeTimeoutMSKeepsServerTimeout: timeout_ms may lower the server's
// timeout, never raise it, and no value may overflow into a deadline in the
// past. From 9,223,372,036,855 ms up, timeout_ms × 1ms no longer fits in a
// time.Duration; each row must still be a full rewrite on both endpoints.
func TestHugeTimeoutMSKeepsServerTimeout(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	t.Cleanup(func() { s.stopControl() })
	for i, ms := range []int64{1000, 9223372036854, 9223372036855, math.MaxInt64} {
		for _, path := range []string{"/v1/rewrite", "/v1/explain"} {
			body := fmt.Sprintf(`{"sql": "SELECT DISTINCT id FROM labels WHERE id = %d", "timeout_ms": %d}`, 5000+i, ms)
			rec := do(s, http.MethodPost, path, body)
			var res struct {
				Output  string            `json:"output"`
				Applied []json.RawMessage `json:"applied"`
				Mode    string            `json:"mode"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("%s timeout_ms %d: %v; body: %s", path, ms, err, rec.Body)
			}
			want := fmt.Sprintf("SELECT labels.id FROM labels WHERE labels.id = %d", 5000+i)
			if rec.Code != http.StatusOK || res.Mode != "" || len(res.Applied) == 0 || res.Output != want {
				t.Errorf("%s timeout_ms %d: status %d, mode %q, output %q; want 200 and %q", path, ms, rec.Code, res.Mode, res.Output, want)
			}
		}
	}
}

// TestExplainDeadlineDuringSearch504 is the /v1/explain twin: the request
// deadline reaches the explain search too, and a truncated explanation is
// answered like a truncated rewrite — 504 with the partial result, its
// Truncated stats and the provenance of the search that did run.
func TestExplainDeadlineDuringSearch504(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) {
		c.beforeRewrite = func(string) { time.Sleep(20 * time.Millisecond) }
	})
	rec := do(s, http.MethodPost, "/v1/explain",
		`{"sql": "SELECT DISTINCT id FROM labels", "timeout_ms": 5}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", rec.Code, rec.Body)
	}
	var res explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || res.Stats.TruncatedBy != "deadline" {
		t.Errorf("stats = %+v, want Truncated by deadline", res.Stats)
	}
	if res.Output == "" {
		t.Error("a deadline-truncated explain must still return the best SQL found")
	}
	if res.Provenance == nil || len(res.Provenance.WhyNot) == 0 {
		t.Error("a deadline-truncated explain must still carry its provenance")
	}
}

// TestQueueWait504 checks the other 504 path: the deadline expires while the
// request is queued behind busy workers (admitted, but never gets a slot).
func TestQueueWait504(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	s, _, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
		c.beforeRewrite = func(string) { <-release }
	})

	// Occupy the single worker.
	started := make(chan struct{})
	go func() {
		close(started)
		do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT id FROM labels"}`)
	}()
	<-started
	waitBusy(t, s, 1)

	// This request is admitted (queue has room) but can never run.
	rec := do(s, http.MethodPost, "/v1/rewrite",
		`{"sql": "SELECT id FROM labels", "timeout_ms": 10}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", rec.Code, rec.Body)
	}
	if e := decodeError(t, rec.Body.String()); e.Code != codeDeadlineExceeded {
		t.Errorf("code = %q, want %q", e.Code, codeDeadlineExceeded)
	}
	once.Do(func() { close(release) })
}

// TestClientDisconnectEndsQueueWait: a request queued behind a busy worker
// stops waiting when its client goes away, long before its deadline — for a
// single query and for a batch item alike.
func TestClientDisconnectEndsQueueWait(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	s, _, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.RequestTimeout = time.Minute
		c.beforeRewrite = func(string) { <-release }
	})
	go do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT id FROM labels"}`)
	waitBusy(t, s, 1)

	for _, body := range []string{
		`{"sql": "SELECT id FROM labels"}`,
		`{"queries": [{"sql": "SELECT id FROM labels"}]}`,
	} {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodPost, "/v1/rewrite", strings.NewReader(body)).WithContext(ctx)
		done := make(chan struct{})
		go func() {
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			close(done)
		}()
		time.Sleep(10 * time.Millisecond) // let it reach the worker wait
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: the queued request kept waiting after its client left", body)
		}
	}
	once.Do(func() { close(release) })
}

// waitBusy polls until n requests hold worker slots (via the busy gauge the
// admission gate maintains), so overload tests don't race request startup.
func waitBusy(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.adm.inflight.Value() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("workers never became busy (inflight=%d, want >= %d)", s.adm.inflight.Value(), n)
}

// TestQueueFull429 checks admission control: with every worker busy and the
// queue full, the next request answers 429 with Retry-After, the rejection
// counter moves, and capacity recovers once the workers drain.
func TestQueueFull429(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	s, reg, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.beforeRewrite = func(string) { <-release }
	})

	// Fill the worker slot and the queue slot: capacity = workers + queue = 2.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels"}`)
			results <- rec.Code
		}()
	}
	// Steady state: one request holds the worker (inflight=1), one waits for
	// it (queue_depth=1) — both admission slots are held.
	deadline := time.Now().Add(5 * time.Second)
	filled := func() bool {
		return reg.Gauge("server_inflight").Value() >= 1 && reg.Gauge("server_queue_depth").Value() >= 1
	}
	for !filled() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !filled() {
		t.Fatalf("admission never filled: inflight=%d queued=%d",
			reg.Gauge("server_inflight").Value(), reg.Gauge("server_queue_depth").Value())
	}

	// Admission is full: the next request must bounce immediately.
	rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT id FROM labels"}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if e := decodeError(t, rec.Body.String()); e.Code != codeOverloaded {
		t.Errorf("code = %q, want %q", e.Code, codeOverloaded)
	}
	if got := reg.Counter("server_admission_rejected").Value(); got != 1 {
		t.Errorf("server_admission_rejected = %d, want 1", got)
	}

	// Release the workers; the held requests finish 200 and capacity returns.
	once.Do(func() { close(release) })
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("held request answered %d, want 200", code)
		}
	}
	rec = do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT id FROM labels"}`)
	if rec.Code != http.StatusOK {
		t.Errorf("post-drain request answered %d, want 200", rec.Code)
	}
}

// TestPanicIsolation checks the crash contract: a panicking handler answers
// 500, increments server_panics, records a journal anomaly carrying the
// panic value — and the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	const poison = "SELECT id FROM labels WHERE title = 'poison'"
	s, reg, jr := newTestServer(t, func(c *Config) {
		c.beforeRewrite = func(sqlText string) {
			if sqlText == poison {
				panic("injected test panic")
			}
		}
	})
	body, _ := json.Marshal(map[string]string{"sql": poison})
	rec := do(s, http.MethodPost, "/v1/rewrite", string(body))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body: %s", rec.Code, rec.Body)
	}
	if e := decodeError(t, rec.Body.String()); e.Code != codeInternal {
		t.Errorf("code = %q, want %q", e.Code, codeInternal)
	}
	if got := reg.Counter("server_panics").Value(); got != 1 {
		t.Errorf("server_panics = %d, want 1", got)
	}
	anomaly := lastAnomaly(jr)
	if !strings.Contains(anomaly, "injected test panic") {
		t.Errorf("journal anomaly %q does not carry the panic value", anomaly)
	}
	if got := reg.Counter("server_responses_5xx").Value(); got != 1 {
		t.Errorf("server_responses_5xx = %d, want 1", got)
	}

	// The process survived: the very next request is served normally.
	rec = do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after panic answered %d, want 200", rec.Code)
	}
	if got := reg.Gauge("server_inflight").Value(); got != 0 {
		t.Errorf("server_inflight leaked after panic: %d", got)
	}
}

// lastAnomaly returns the reason of the newest anomaly event in the journal.
func lastAnomaly(jr *journal.Journal) string {
	events := jr.Snapshot()
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Kind == journal.KindAnomaly {
			return jr.AnomalyReason(events[i].A)
		}
	}
	return ""
}

// TestShutdownRefusesNewWork checks that once Shutdown begins, /v1 endpoints
// answer 503 shutting_down.
func TestShutdownRefusesNewWork(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT id FROM labels"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if e := decodeError(t, rec.Body.String()); e.Code != codeShuttingDown {
		t.Errorf("code = %q, want %q", e.Code, codeShuttingDown)
	}
}
