// Package server is the rewrite-as-a-service daemon behind `wetune serve`:
// a long-running HTTP front end that exposes the optimizer over JSON
// endpoints and stays robust under sustained load.
//
// Endpoints:
//
//	POST /v1/rewrite   single {"sql": ...} or batch {"queries": [...]} →
//	                   rewritten SQL, applied rule chain, costs, search stats
//	POST /v1/explain   full derivation provenance via Optimizer.ExplainSQL
//	GET  /v1/rules     the served rule library
//	GET  /healthz      liveness (200 while the process runs)
//	GET  /readyz       readiness (503 once shutdown begins)
//
// Load behavior is explicit rather than emergent: requests pass a bounded
// admission gate (queue slots on top of a worker pool sized by GOMAXPROCS)
// so overload returns 429 + Retry-After instead of collapsing under
// unbounded goroutines; per-request deadlines propagate into the rewrite
// search as a budget (a timed-out search degrades to the best plan found,
// reported as 504 with Truncated stats); oversized bodies map to 413 and
// unparsable SQL to 422 with the parse position; a handler panic is
// isolated to its request (500 + a flight-recorder anomaly event, never
// process death). Shutdown stops accepting, fails readiness, drains
// in-flight requests, and leaves late arrivals with 503.
//
// All workers of one app share one configured Optimizer — the
// configure-then-share concurrency contract from the rewrite engine — so
// the compiled rule index and the result cache are shared process-wide.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"wetune"
	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/rules"
	"wetune/internal/sql"
)

// Config configures a Server. The zero value is not servable: Schemas must
// name at least one schema. Every other field has a production default.
type Config struct {
	// Rules is the served rule library (default: the builtin library).
	Rules []rules.Rule
	// Schemas maps an application name (the request's "app" field) to its
	// schema. Required, at least one entry.
	Schemas map[string]*sql.Schema
	// DefaultApp is the schema assumed when a request omits "app". Defaults
	// to the sole schema when there is exactly one; otherwise requests
	// without "app" are rejected.
	DefaultApp string
	// Workers bounds concurrently executing rewrites (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests admitted but waiting for a worker (default
	// 4×Workers). Beyond Workers+QueueDepth, requests get 429.
	QueueDepth int
	// MaxBodyBytes bounds the request body (default 1 MiB → 413 beyond).
	MaxBodyBytes int64
	// RequestTimeout caps one request's wall clock, queue wait included
	// (default 10s). A request may lower it via "timeout_ms", never raise it.
	RequestTimeout time.Duration
	// MaxBatch bounds queries per batch request (default 64 → 413 beyond).
	MaxBatch int
	// ResultCacheSize sizes each app's query→result LRU (0 = a serving
	// default of 2048, negative disables caching). The serving default is
	// deliberately larger than the rewrite engine's: an LRU one entry
	// smaller than a cyclically-replayed working set degrades to a 0% hit
	// rate, so the daemon sizes for "every hot query of one app fits".
	ResultCacheSize int
	// Registry receives the server metrics (default obs.Default; note the
	// rewrite engine's own counters always land in obs.Default).
	Registry *obs.Registry
	// Journal receives anomaly events (default journal.Default).
	Journal *journal.Journal
	// Degradation tunes the overload ladder (see DegradationConfig; the zero
	// value enables it with defaults).
	Degradation DegradationConfig

	// beforeRewrite, when set, runs inside the worker slot before each
	// query's rewrite. Test instrumentation only: it lets the race/overload
	// tests hold workers busy or inject a panic for a chosen query.
	beforeRewrite func(sqlText string)
}

func (c Config) withDefaults() Config {
	if c.Rules == nil {
		c.Rules = rules.All()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Journal == nil {
		c.Journal = journal.Default()
	}
	c.Degradation = c.Degradation.withDefaults(c.RequestTimeout)
	return c
}

// Server is the daemon. Build with New, expose via Handler or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg  Config
	opts map[string]*wetune.Optimizer
	apps []string // sorted app names, for error messages and /v1/rules
	adm  *admission
	mux  http.Handler

	// Per-request and batch fan-out metrics, resolved once: a registry
	// lookup takes the registry's read lock, which every request would share.
	responses2xx   *obs.Counter
	responses4xx   *obs.Counter
	responses5xx   *obs.Counter
	panics         *obs.Counter
	injectedPanics *obs.Counter
	batchReqs      *obs.Counter
	batchItems     *obs.Counter
	batchWait      *obs.Histogram

	// Degradation ladder (nil when Config.Degradation.Disabled) plus its
	// controller goroutine's lifecycle.
	lad      *ladder
	ctrlStop chan struct{}
	ctrlDone chan struct{}
	ctrlOnce sync.Once

	// drainMu serializes the draining flip against in-flight registration:
	// requests take the read side to check-and-register, Shutdown takes the
	// write side to flip, so no request registers after the drain wait
	// starts.
	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup

	httpMu   sync.Mutex
	httpSrv  *http.Server
	listenOn string
}

// servingCacheSize is the default capacity of each app's result cache when
// the config leaves ResultCacheSize at 0. It must exceed the hot working set
// of any one app (the largest corpus app replays 464 distinct queries): an
// LRU scanned cyclically by a working set even one entry over capacity evicts
// every entry right before its reuse and serves 0% hits.
const servingCacheSize = 2048

// orDefault returns n, or def when n is 0.
func orDefault(n, def int) int {
	if n == 0 {
		return def
	}
	return n
}

// New validates the config, builds one shared Optimizer per schema
// (configure-then-share: all configuration happens here, before any request
// goroutine exists) and wires the endpoint mux.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Schemas) == 0 {
		return nil, errors.New("server: Config.Schemas must name at least one schema")
	}
	if cfg.DefaultApp == "" && len(cfg.Schemas) == 1 {
		for app := range cfg.Schemas {
			cfg.DefaultApp = app
		}
	}
	if cfg.DefaultApp != "" {
		if _, ok := cfg.Schemas[cfg.DefaultApp]; !ok {
			return nil, fmt.Errorf("server: DefaultApp %q has no schema", cfg.DefaultApp)
		}
	}

	reg := cfg.Registry
	s := &Server{
		cfg:            cfg,
		opts:           make(map[string]*wetune.Optimizer, len(cfg.Schemas)),
		adm:            newAdmission(cfg.Workers, cfg.QueueDepth, reg),
		responses2xx:   reg.Counter("server_responses_2xx"),
		responses4xx:   reg.Counter("server_responses_4xx"),
		responses5xx:   reg.Counter("server_responses_5xx"),
		panics:         reg.Counter("server_panics"),
		injectedPanics: reg.Counter("server_injected_panics"),
		batchReqs:      reg.Counter("server_batch_requests"),
		batchItems:     reg.Counter("server_batch_items"),
		batchWait:      reg.Histogram("server_batch_item_wait"),
	}
	for app, schema := range cfg.Schemas {
		opt := wetune.NewOptimizer(cfg.Rules, schema)
		if cfg.ResultCacheSize >= 0 {
			opt.EnableResultCache(orDefault(cfg.ResultCacheSize, servingCacheSize))
		}
		s.opts[app] = opt
		s.apps = append(s.apps, app)
	}
	sort.Strings(s.apps)

	if !cfg.Degradation.Disabled {
		s.lad = newLadder(cfg.Degradation, cfg.Registry, cfg.Journal)
		s.ctrlStop = make(chan struct{})
		s.ctrlDone = make(chan struct{})
		go s.controlLoop()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/rewrite", s.guarded("rewrite", s.handleRewrite))
	mux.HandleFunc("POST /v1/explain", s.guarded("explain", s.handleExplain))
	mux.HandleFunc("GET /v1/rules", s.instrumented("rules", s.handleRules))
	mux.HandleFunc("GET /healthz", s.instrumented("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrumented("readyz", s.handleReadyz))
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler (for httptest or custom
// listeners). Panic isolation, admission control and metrics are already
// layered in.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown. It returns nil after a
// graceful shutdown (http.ErrServerClosed is swallowed).
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.listenOn = ln.Addr().String()
	s.httpMu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Addr returns the bound address once Serve has been called ("" before).
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	return s.listenOn
}

// Ready reports whether the server still accepts work (false once Shutdown
// begins). /readyz is this, as a status code.
func (s *Server) Ready() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return !s.draining
}

// Shutdown drains the daemon: readiness flips to 503 and new /v1 requests
// are refused immediately, the listener (when Serve was used) stops
// accepting, and Shutdown then waits for every in-flight request to
// complete — or for ctx to expire, which is returned as its error. Safe to
// call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	s.stopControl()

	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// register marks one request in flight unless the server is draining.
func (s *Server) register() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}
