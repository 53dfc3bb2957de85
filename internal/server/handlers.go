package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wetune"
	"wetune/internal/faultinject"
	"wetune/internal/obs/journal"
)

// Response headers reporting serving conditions: the degradation-ladder level
// a /v1/rewrite answer was served at (X-WeTune-Service-Level), and the fault
// point behind an injected (chaos-run) failure (X-WeTune-Injected-Fault) —
// load generators use the latter to separate injected damage from real
// errors. The keys are in canonical form, which is what goes on the wire.
const (
	serviceLevelHeader  = "X-Wetune-Service-Level"
	injectedFaultHeader = "X-Wetune-Injected-Fault"
)

// serviceLevelValues is the read-only X-WeTune-Service-Level header value of
// each ladder level, shared by every response served at it.
var serviceLevelValues = func() (v [LevelCacheOnly + 1][]string) {
	for l := range v {
		v[l] = []string{ServiceLevel(l).String()}
	}
	return v
}()

// rewriteQuery is one query of a rewrite/explain request. App selects the
// schema ("" = the server's default app).
type rewriteQuery struct {
	SQL string `json:"sql"`
	App string `json:"app,omitempty"`
}

// rewriteRequest is the /v1/rewrite body: exactly one of SQL (single) or
// Queries (batch). TimeoutMS lowers — never raises — the server's
// per-request timeout.
type rewriteRequest struct {
	SQL       string         `json:"sql,omitempty"`
	App       string         `json:"app,omitempty"`
	Queries   []rewriteQuery `json:"queries,omitempty"`
	TimeoutMS int64          `json:"timeout_ms,omitempty"`
}

// rewriteResponse is the single-query answer: the app the query resolved to
// plus the optimizer's full machine-readable result.
type rewriteResponse struct {
	App string `json:"app"`
	*wetune.RewriteResult
}

// batchItem is one batch entry: a result or an error, never both.
type batchItem struct {
	App                   string    `json:"app,omitempty"`
	*wetune.RewriteResult           // nil when Error is set
	Error                 *apiError `json:"error,omitempty"`
}

// batchResponse is the batch answer, item i answering query i.
type batchResponse struct {
	Results []batchItem `json:"results"`
	Errors  int         `json:"errors"`
}

// explainResponse is the /v1/explain answer.
type explainResponse struct {
	App string `json:"app"`
	*wetune.ExplainResult
}

// statusWriter records the status code a handler sent, for the response
// counters and for the panic path (headers already out → only log).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// instrumented wraps a handler with the per-request observability layer:
// a per-endpoint latency histogram and request counter, response-class
// counters, and panic isolation — a panicking handler answers 500 and
// records a flight-recorder anomaly (with stack) instead of killing the
// process.
func (s *Server) instrumented(name string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.cfg.Registry.Histogram("server_latency_" + name)
	reqs := s.cfg.Registry.Counter("server_requests_" + name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				if inj, ok := p.(faultinject.Injected); ok {
					// An injected chaos panic: survivable by design, so it is
					// counted apart from real panics, marked in the response,
					// and kept out of the anomaly stream (a chaos soak would
					// otherwise bury real anomalies under scheduled ones).
					s.injectedPanics.Inc()
					if !sw.wrote {
						sw.Header().Set(injectedFaultHeader, string(inj.Point))
						writeError(sw, http.StatusInternalServerError, apiError{
							Code:    codeInternal,
							Message: "injected fault: " + inj.Error(),
						})
					}
				} else {
					s.panics.Inc()
					s.cfg.Journal.Anomaly(fmt.Sprintf("server: panic in %s handler: %v\n%s", name, p, debug.Stack()))
					if !sw.wrote {
						writeError(sw, http.StatusInternalServerError, apiError{
							Code:    codeInternal,
							Message: "internal error (panic recovered; see journal anomaly)",
						})
					}
				}
			}
			lat.Observe(time.Since(start))
			switch c := sw.status(); {
			case c >= 500:
				s.responses5xx.Inc()
			case c >= 400:
				s.responses4xx.Inc()
			default:
				s.responses2xx.Inc()
			}
		}()
		h(sw, r)
	}
}

// guarded layers the work-endpoint gates under instrumented: drain refusal
// (503), in-flight registration (what Shutdown waits on), and the bounded
// admission gate (429 + Retry-After when full).
func (s *Server) guarded(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumented(name, func(w http.ResponseWriter, r *http.Request) {
		if !s.register() {
			writeError(w, http.StatusServiceUnavailable, apiError{
				Code:    codeShuttingDown,
				Message: "server is draining; not accepting new work",
			})
			return
		}
		defer s.inflight.Done()
		if !s.adm.admit() {
			writeOverloaded(w, 1)
			return
		}
		defer s.adm.release()
		h(w, r)
	})
}

// decodeBody reads the body, under the body-size limit, into pooled scratch
// and decodes it into v as exactly one JSON value: an empty or whitespace-only
// body and data after the value are malformed. It answers 413 (too large) or
// 400 (malformed) itself; ok=false means the response is already written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	buf := getBuf()
	defer putBuf(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), v)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, apiError{
				Code:    codeTooLarge,
				Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes),
			})
			return false
		}
		writeError(w, http.StatusBadRequest, apiError{
			Code:    codeBadRequest,
			Message: "malformed JSON body: " + err.Error(),
		})
		return false
	}
	return true
}

// resolveApp maps a request's app name to its shared Optimizer, or to the
// error to answer.
func (s *Server) resolveApp(app string) resolvedApp {
	if app == "" {
		app = s.cfg.DefaultApp
	}
	if app == "" {
		return resolvedApp{err: &apiError{
			Code:    codeBadRequest,
			Message: fmt.Sprintf("\"app\" is required (serving %d apps: %v)", len(s.apps), s.apps),
		}}
	}
	opt, okApp := s.opts[app]
	if !okApp {
		return resolvedApp{err: &apiError{
			Code:    codeUnknownApp,
			Message: fmt.Sprintf("unknown app %q (serving: %v)", app, s.apps),
		}}
	}
	return resolvedApp{app: app, opt: opt}
}

// deadline is the request's deadline: the server timeout from now, lowered by
// the request's timeout_ms when given. timeout_ms is compared in milliseconds
// before it is converted, so a huge value cannot overflow into a deadline in
// the past. It is a value, not a context: the search reads it as a budget,
// and a worker wait arms a timer on it only when it has to wait (the client
// context's cancellation ends that wait too).
func (s *Server) deadline(timeoutMS int64) time.Time {
	timeout := s.cfg.RequestTimeout
	if timeoutMS > 0 && timeoutMS <= timeout.Milliseconds() {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	return time.Now().Add(timeout)
}

// handleRewrite is POST /v1/rewrite: single {"sql": ...} or batch
// {"queries": [...]}. The whole request — queue wait included — runs under
// one deadline that propagates into each rewrite search as a budget.
func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	var req rewriteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	single := req.SQL != ""
	if single == (len(req.Queries) > 0) {
		writeError(w, http.StatusBadRequest, apiError{
			Code:    codeBadRequest,
			Message: "exactly one of \"sql\" or \"queries\" is required",
		})
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, apiError{
			Code:    codeTooLarge,
			Message: fmt.Sprintf("batch of %d queries exceeds the %d-query limit", len(req.Queries), s.cfg.MaxBatch),
		})
		return
	}
	// Resolve the app before taking a worker: an unknown app must not cost a
	// queue wait.
	var rz resolvedApp
	if single {
		if rz = s.resolveApp(req.App); rz.err != nil {
			writeError(w, http.StatusBadRequest, *rz.err)
			return
		}
	}
	deadline := s.deadline(req.TimeoutMS)

	// The whole request — every batch item included — is served at the
	// ladder's current level, reported once in the response header. Level
	// changes mid-request apply to the next request, not this one.
	level := s.CurrentServiceLevel()
	w.Header()[serviceLevelHeader] = serviceLevelValues[level]

	if !single {
		s.rewriteBatch(w, r, req.Queries, deadline, level)
		return
	}
	if !s.adm.acquireWorker(r.Context(), deadline) {
		writeError(w, http.StatusGatewayTimeout, apiError{
			Code:    codeDeadlineExceeded,
			Message: "request deadline expired while waiting for a worker",
		})
		return
	}
	defer s.adm.releaseWorker()
	faultinject.MaybePanic(faultinject.HandlerPanic)
	if s.cfg.beforeRewrite != nil {
		s.cfg.beforeRewrite(req.SQL)
	}
	res, err := rz.opt.OptimizeSQLResultMode(deadline, req.SQL, level)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, sqlErr(err))
		return
	}
	writeJSON(w, resultStatus(res), rewriteResponse{App: rz.app, RewriteResult: res})
}

// rewriteBatch serves a batch: items fan out across the worker pool, bounded
// by Workers lanes. The request holds its one admission slot throughout; each
// item claims an execution token only for the span of its own rewrite, so
// batch concurrency comes out of the same Workers bound as single queries and
// the admission contract (never more than Workers concurrent rewrites) is
// preserved. Items are pulled by an atomic cursor and write results by index,
// so response ordering is position-stable regardless of completion order.
// Per-item failures (bad app, bad SQL, deadline spent waiting for a token)
// are reported in place; the batch itself answers 200 — partial results are
// the point of batching.
func (s *Server) rewriteBatch(w http.ResponseWriter, r *http.Request, queries []rewriteQuery, deadline time.Time, level ServiceLevel) {
	// Resolve every app before taking a worker: an unknown app must not cost
	// a queue wait.
	rq := make([]resolvedApp, len(queries))
	for i, q := range queries {
		rq[i] = s.resolveApp(q.App)
	}
	s.batchReqs.Inc()
	results := make([]batchItem, len(queries))
	lanes := min(s.cfg.Workers, len(queries))
	var next, errCount atomic.Int64
	var wg sync.WaitGroup
	s.adm.beginExec()
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(queries) {
					return
				}
				s.runBatchItem(r.Context(), deadline, i, queries[i], rq[i], results, &errCount, level)
			}
		}()
	}
	wg.Wait()
	s.adm.endExec()
	writeJSON(w, http.StatusOK, batchResponse{Results: results, Errors: int(errCount.Load())})
}

// resultStatus is the status a single rewrite or explanation is answered
// with: 200, or 504 when the deadline cut the search. The result is still
// correct SQL (the best plan found in time) but the contract is explicit —
// 504, with the Truncated stats attached.
func resultStatus(res *wetune.RewriteResult) int {
	if res.Stats.TruncatedBy == "deadline" {
		return http.StatusGatewayTimeout
	}
	return http.StatusOK
}

// resolvedApp is one query's app resolution: a shared Optimizer or the error
// to answer (for a batch item, in its slot).
type resolvedApp struct {
	app string
	opt *wetune.Optimizer
	err *apiError
}

// runBatchItem executes one batch item inside a fan-out lane: wait for an
// execution token (charged against the request deadline, with the wait
// recorded per item), rewrite, and write the result into the item's slot. A
// panic is isolated to the item — counted and journaled like a handler panic,
// answered as an in-place internal error — so one poisoned query cannot take
// down its batch siblings. ctx is the client's context: a dropped client ends
// the token wait.
func (s *Server) runBatchItem(ctx context.Context, deadline time.Time, i int, q rewriteQuery, rz resolvedApp, results []batchItem, errCount *atomic.Int64, level ServiceLevel) {
	defer func() {
		if p := recover(); p != nil {
			msg := "internal error (panic recovered; see journal anomaly)"
			if inj, ok := p.(faultinject.Injected); ok {
				s.injectedPanics.Inc()
				msg = "injected fault: " + inj.Error()
			} else {
				s.panics.Inc()
				s.cfg.Journal.Anomaly(fmt.Sprintf("server: panic in batch item %d: %v\n%s", i, p, debug.Stack()))
			}
			results[i] = batchItem{App: rz.app, Error: &apiError{
				Code:    codeInternal,
				Message: msg,
			}}
			errCount.Add(1)
		}
	}()
	if rz.err != nil {
		results[i] = batchItem{App: q.App, Error: rz.err}
		errCount.Add(1)
		return
	}
	waitStart := time.Now()
	if !s.adm.acquireItemWorker(ctx, deadline) {
		results[i] = batchItem{App: rz.app, Error: &apiError{
			Code:    codeDeadlineExceeded,
			Message: "request deadline expired before this query ran",
		}}
		errCount.Add(1)
		return
	}
	defer s.adm.releaseItemWorker()
	wait := time.Since(waitStart)
	s.batchWait.Observe(wait)
	s.batchItems.Inc()
	s.cfg.Journal.Record(journal.KindBatchItem, -1, wait.Nanoseconds(), int64(i))
	faultinject.MaybePanic(faultinject.HandlerPanic)
	if s.cfg.beforeRewrite != nil {
		s.cfg.beforeRewrite(q.SQL)
	}
	res, err := rz.opt.OptimizeSQLResultMode(deadline, q.SQL, level)
	if err != nil {
		results[i] = batchItem{App: rz.app, Error: ptr(sqlErr(err))}
		errCount.Add(1)
		return
	}
	results[i] = batchItem{App: rz.app, RewriteResult: res}
}

// handleExplain is POST /v1/explain: one query's full derivation record via
// Optimizer.ExplainSQL. Explain always runs a real bounded search (it never
// reads the result cache), so its latency is the uncached rewrite latency
// plus provenance recording. The request deadline reaches the search as on
// /v1/rewrite, and a deadline-truncated explain is answered the same way:
// 504 with the partial result (and its provenance) attached.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req rewriteRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.SQL == "" || len(req.Queries) > 0 {
		writeError(w, http.StatusBadRequest, apiError{
			Code:    codeBadRequest,
			Message: "\"sql\" is required (explain takes a single query)",
		})
		return
	}
	rz := s.resolveApp(req.App)
	if rz.err != nil {
		writeError(w, http.StatusBadRequest, *rz.err)
		return
	}
	deadline := s.deadline(req.TimeoutMS)
	if !s.adm.acquireWorker(r.Context(), deadline) {
		writeError(w, http.StatusGatewayTimeout, apiError{
			Code:    codeDeadlineExceeded,
			Message: "request deadline expired while waiting for a worker",
		})
		return
	}
	defer s.adm.releaseWorker()
	faultinject.MaybePanic(faultinject.HandlerPanic)
	if s.cfg.beforeRewrite != nil {
		s.cfg.beforeRewrite(req.SQL)
	}
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	res, err := rz.opt.ExplainSQL(ctx, req.SQL)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, sqlErr(err))
		return
	}
	writeJSON(w, resultStatus(&res.RewriteResult), explainResponse{App: rz.app, ExplainResult: res})
}

// ruleInfo is one served rule in /v1/rules.
type ruleInfo struct {
	No          int    `json:"no"`
	Name        string `json:"name"`
	Source      string `json:"source"`
	Destination string `json:"destination"`
	Constraints string `json:"constraints"`
	Verifier    string `json:"verifier,omitempty"`
}

// rulesResponse is the /v1/rules answer: the served apps and rule library.
type rulesResponse struct {
	Apps       []string   `json:"apps"`
	DefaultApp string     `json:"default_app,omitempty"`
	Rules      []ruleInfo `json:"rules"`
}

// handleRules is GET /v1/rules.
func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	out := rulesResponse{Apps: s.apps, DefaultApp: s.cfg.DefaultApp}
	for _, rl := range s.cfg.Rules {
		out.Rules = append(out.Rules, ruleInfo{
			No:          rl.No,
			Name:        rl.Name,
			Source:      rl.Src.String(),
			Destination: rl.Dest.String(),
			Constraints: rl.Constraints.String(),
			Verifier:    rl.Verifier,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is GET /healthz: liveness, true while the process answers.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is GET /readyz: readiness; 503 once shutdown begins, so load
// balancers stop routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func ptr[T any](v T) *T { return &v }
