package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"wetune"
	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/workload"
)

// testSchema is the demo-style schema the conformance tests serve.
func testSchema(t testing.TB) *sql.Schema {
	t.Helper()
	s, err := sql.ParseDDL(`
		CREATE TABLE labels (
			id INT NOT NULL PRIMARY KEY,
			title VARCHAR(100),
			project_id INT
		);
		CREATE TABLE projects (
			id INT NOT NULL PRIMARY KEY,
			name VARCHAR(100)
		);
	`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer builds a server over the demo-style schema with an isolated
// registry and journal so assertions never race other tests.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *obs.Registry, *journal.Journal) {
	t.Helper()
	reg := obs.NewRegistry()
	jr := journal.New(1 << 12)
	cfg := Config{
		Schemas:  map[string]*sql.Schema{"demo": testSchema(t)},
		Registry: reg,
		Journal:  jr,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg, jr
}

// testCtx returns a context that expires with the test's own deadline
// headroom, for Shutdown calls that must not hang a failing test.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// do runs one request through the handler stack and returns the recorder.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestRewriteGolden pins the full JSON response for one fixed query. The
// search is deterministic, so the body is stable byte for byte. The wire
// format is compact JSON (one line + trailing newline): indentation cost
// ~12% of server CPU and ~30% of response bytes at serving rates.
func TestRewriteGolden(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length = %q, body is %d bytes", cl, rec.Body.Len())
	}
	const golden = `{"app":"demo","input":"SELECT DISTINCT id FROM labels",` +
		`"output":"SELECT labels.id FROM labels",` +
		`"applied":[{"rule":2,"name":"dedup-unique-proj"}],` +
		`"cost_before":2,"cost_after":1,` +
		`"stats":{"nodes_explored":2,"candidates":1,"memo_hits":0,` +
		`"rule_attempts":1,"rule_matches":1,"index_pruned":153,"shape_pruned":31,` +
		`"initial_size":2,"final_size":1,"initial_cost":2,"final_cost":1,` +
		`"steps":1,"truncated":false}}` + "\n"
	if got := rec.Body.String(); got != golden {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestRewriteCachedSecondCall pins the result-cache path: the second
// identical request answers from the cache with the same payload plus the
// cached marker.
func TestRewriteCachedSecondCall(t *testing.T) {
	s, _, jr := newTestServer(t, nil)
	body := `{"sql": "SELECT DISTINCT id FROM labels"}`
	own, process := jr.Written(), journal.Default().Written()
	first := do(s, http.MethodPost, "/v1/rewrite", body)
	second := do(s, http.MethodPost, "/v1/rewrite", body)
	// A miss and a hit write no flight-recorder event: a request's cache
	// decision is RewriteResult.Cached and the rewrite_result_cache_* counters.
	if n, m := jr.Written()-own, journal.Default().Written()-process; n != 0 || m != 0 {
		t.Errorf("a miss and a hit wrote %d events to the server's journal and %d to the process's, want 0", n, m)
	}
	var a, b rewriteResponse
	if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.Cached || !b.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", a.Cached, b.Cached)
	}
	if a.Output != b.Output || a.CostAfter != b.CostAfter {
		t.Fatalf("cached result diverged: %q vs %q", a.Output, b.Output)
	}
}

// TestBatchRewrite pins batch semantics: item i answers query i, per-item
// errors ride alongside results, and the batch itself answers 200.
func TestBatchRewrite(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	rec := do(s, http.MethodPost, "/v1/rewrite", `{
		"queries": [
			{"sql": "SELECT DISTINCT id FROM labels"},
			{"sql": "SELECT FROM"},
			{"sql": "SELECT id FROM labels", "app": "nope"}
		]
	}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body: %s", rec.Code, rec.Body)
	}
	var out batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 || out.Errors != 2 {
		t.Fatalf("results=%d errors=%d; want 3, 2", len(out.Results), out.Errors)
	}
	if out.Results[0].Error != nil || out.Results[0].Output != "SELECT labels.id FROM labels" {
		t.Errorf("item 0 = %+v", out.Results[0])
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != codeInvalidSQL || out.Results[1].Error.Position == nil {
		t.Errorf("item 1 error = %+v, want invalid_sql with position", out.Results[1].Error)
	}
	if out.Results[2].Error == nil || out.Results[2].Error.Code != codeUnknownApp {
		t.Errorf("item 2 error = %+v, want unknown_app", out.Results[2].Error)
	}
}

// TestExplainEndpoint checks /v1/explain returns the provenance record and
// stays consistent with /v1/rewrite on output and costs.
func TestExplainEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	body := `{"sql": "SELECT DISTINCT id FROM labels"}`
	rw := do(s, http.MethodPost, "/v1/rewrite", body)
	ex := do(s, http.MethodPost, "/v1/explain", body)
	if ex.Code != http.StatusOK {
		t.Fatalf("explain status = %d; body: %s", ex.Code, ex.Body)
	}
	var rres rewriteResponse
	var eres struct {
		App        string          `json:"app"`
		Output     string          `json:"output"`
		CostAfter  float64         `json:"cost_after"`
		Provenance json.RawMessage `json:"provenance"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &rres); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ex.Body.Bytes(), &eres); err != nil {
		t.Fatal(err)
	}
	if eres.Output != rres.Output || eres.CostAfter != rres.CostAfter {
		t.Errorf("explain diverged from rewrite: %q/%v vs %q/%v",
			eres.Output, eres.CostAfter, rres.Output, rres.CostAfter)
	}
	if len(eres.Provenance) == 0 || string(eres.Provenance) == "null" {
		t.Error("explain response has no provenance record")
	}
}

// TestRulesEndpoint checks /v1/rules lists the apps and the full library.
func TestRulesEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	rec := do(s, http.MethodGet, "/v1/rules", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out rulesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Apps) != 1 || out.Apps[0] != "demo" || out.DefaultApp != "demo" {
		t.Errorf("apps = %v default = %q", out.Apps, out.DefaultApp)
	}
	if len(out.Rules) != len(wetune.BuiltinRules()) {
		t.Errorf("rules = %d, want %d", len(out.Rules), len(wetune.BuiltinRules()))
	}
	for _, r := range out.Rules {
		if r.No == 0 || r.Name == "" || r.Source == "" || r.Destination == "" {
			t.Fatalf("incomplete rule entry: %+v", r)
		}
	}
}

// TestHealthEndpoints checks liveness and readiness, including the drain
// flip.
func TestHealthEndpoints(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	if rec := do(s, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := do(s, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d", rec.Code)
	}
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if rec := do(s, http.MethodGet, "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown = %d, want 503", rec.Code)
	}
	// Liveness stays green while draining: the process still answers.
	if rec := do(s, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz after shutdown = %d", rec.Code)
	}
}

// TestMethodNotAllowed checks the mux rejects wrong methods.
func TestMethodNotAllowed(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	if rec := do(s, http.MethodGet, "/v1/rewrite", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/rewrite = %d, want 405", rec.Code)
	}
	if rec := do(s, http.MethodPost, "/healthz", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", rec.Code)
	}
}

// TestCorpusEquivalence is the pinned server↔library contract: for every
// plannable query of the full rewrite corpus, POST /v1/rewrite answers
// byte-identical output SQL, applied chain and costs to
// Optimizer.OptimizeSQLResult over the same shared rule set.
func TestCorpusEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus equivalence is not a -short test")
	}
	const perApp = 100
	schemas, items := workload.RewriteCorpus(perApp)
	s, err := New(Config{Schemas: schemas, Registry: obs.NewRegistry(), Journal: journal.New(1 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	refs := make(map[string]*wetune.Optimizer, len(schemas))
	for app, schema := range schemas {
		refs[app] = wetune.NewOptimizer(wetune.BuiltinRules(), schema)
	}
	checked := 0
	for _, it := range items {
		want, err := refs[it.App].OptimizeSQLResult(it.SQL)
		body, _ := json.Marshal(map[string]string{"sql": it.SQL, "app": it.App})
		rec := do(s, http.MethodPost, "/v1/rewrite", string(body))
		if err != nil {
			// Unplannable reference → the server must answer 422, never 5xx.
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("%s: unplannable query answered %d, want 422: %.80q", it.App, rec.Code, it.SQL)
			}
			continue
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d for plannable query %.80q: %s", it.App, rec.Code, it.SQL, rec.Body)
		}
		var got rewriteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Output != want.Output {
			t.Fatalf("%s: output diverged for %.80q:\nserver:  %s\nlibrary: %s", it.App, it.SQL, got.Output, want.Output)
		}
		if fmt.Sprint(got.Applied) != fmt.Sprint(want.Applied) {
			t.Fatalf("%s: applied chain diverged for %.80q: %v vs %v", it.App, it.SQL, got.Applied, want.Applied)
		}
		if got.CostBefore != want.CostBefore || got.CostAfter != want.CostAfter {
			t.Fatalf("%s: costs diverged for %.80q: %v/%v vs %v/%v",
				it.App, it.SQL, got.CostBefore, got.CostAfter, want.CostBefore, want.CostAfter)
		}
		checked++
	}
	if checked < len(items)/2 {
		t.Fatalf("only %d of %d corpus queries were plannable; corpus regressed?", checked, len(items))
	}
	t.Logf("equivalence held for %d plannable corpus queries", checked)
}

// TestEndpointMetrics checks the per-endpoint observability wiring: request
// counters, latency histograms and response-class counters move.
func TestEndpointMetrics(t *testing.T) {
	s, reg, _ := newTestServer(t, nil)
	do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels"}`)
	do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT FROM"}`)
	do(s, http.MethodGet, "/healthz", "")
	if got := reg.Counter("server_requests_rewrite").Value(); got != 2 {
		t.Errorf("server_requests_rewrite = %d, want 2", got)
	}
	if got := reg.Counter("server_requests_healthz").Value(); got != 1 {
		t.Errorf("server_requests_healthz = %d, want 1", got)
	}
	if got := reg.Histogram("server_latency_rewrite").Count(); got != 2 {
		t.Errorf("server_latency_rewrite count = %d, want 2", got)
	}
	if got := reg.Counter("server_responses_2xx").Value(); got != 2 {
		t.Errorf("server_responses_2xx = %d, want 2", got)
	}
	if got := reg.Counter("server_responses_4xx").Value(); got != 1 {
		t.Errorf("server_responses_4xx = %d, want 1", got)
	}
	if got := reg.Gauge("server_inflight").Value(); got != 0 {
		t.Errorf("server_inflight at rest = %d, want 0", got)
	}
	if got := reg.Gauge("server_queue_depth").Value(); got != 0 {
		t.Errorf("server_queue_depth at rest = %d, want 0", got)
	}
}

// TestNewValidation checks config validation.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no schemas should fail")
	}
	if _, err := New(Config{
		Schemas:    map[string]*sql.Schema{"a": nil},
		DefaultApp: "missing",
	}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("New with bad DefaultApp: %v", err)
	}
}

// TestRewriteAnswerReplans: a predicate that reads a joined table only through
// a CASE arm keeps the join (rule 8 used to drop it and answer 200 with a
// dangling projects.name), so what /v1/rewrite answers plans again.
func TestRewriteAnswerReplans(t *testing.T) {
	schema, err := sql.ParseDDL(`
		CREATE TABLE projects (id INT NOT NULL PRIMARY KEY, name VARCHAR(100));
		CREATE TABLE issues (
			id INT NOT NULL PRIMARY KEY,
			project_id INT NOT NULL,
			FOREIGN KEY (project_id) REFERENCES projects (id)
		);
	`)
	if err != nil {
		t.Fatal(err)
	}
	s, _, _ := newTestServer(t, func(c *Config) { c.Schemas = map[string]*sql.Schema{"demo": schema} })
	for _, where := range []string{
		"CASE WHEN projects.name = 'x' THEN 1 ELSE 0 END = 1",
		"issues.id > 3", // the control: here rule 8 does drop the join
	} {
		q := "SELECT issues.id FROM issues JOIN projects ON issues.project_id = projects.id WHERE " + where
		body, _ := json.Marshal(map[string]string{"sql": q})
		rec := do(s, http.MethodPost, "/v1/rewrite", string(body))
		var out rewriteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, %v; body: %s", rec.Code, err, rec.Body)
		}
		if _, err := plan.BuildSQL(out.Output, schema); err != nil {
			t.Errorf("answer does not re-plan: %v\n  %s", err, out.Output)
		}
		if dropped := !strings.Contains(out.Output, "projects"); dropped != (where == "issues.id > 3") {
			t.Errorf("join dropped = %v for %s\n  %s", dropped, where, out.Output)
		}
	}
}
