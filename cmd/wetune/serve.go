package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wetune/internal/server"
	"wetune/internal/sql"
	"wetune/internal/workload"
)

// serveSchemas is the schema set `wetune serve` exposes: the demo GitLab
// schema (app "demo", the default) plus every workload application schema
// and the Calcite suite schema — the same apps `wetune loadtest` drives, so
// a served daemon answers the full rewrite corpus.
func serveSchemas() map[string]*sql.Schema {
	schemas, _ := workload.RewriteCorpus(1)
	schemas["demo"] = demoSchema()
	return schemas
}

// cmdServe runs the rewrite-as-a-service daemon until SIGINT/SIGTERM, then
// drains gracefully: readiness flips to 503, the listener closes, in-flight
// requests complete, and the obs sinks (including the flight-recorder
// journal, via the shared -journal flag) are dumped.
func cmdServe(args []string) int {
	fs := newFlagSet("serve")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent rewrite workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth beyond the workers (0 = 4×workers); beyond workers+queue requests get 429")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline, queue wait included; propagates into the rewrite search budget")
	maxBody := fs.Int64("max-body", 1<<20, "request body limit in bytes (413 beyond)")
	resultCache := fs.Int("result-cache", 0, "per-app query→result LRU size (0 = default, negative disables)")
	grace := fs.Duration("grace", 15*time.Second, "shutdown grace period for draining in-flight requests")
	degrade := fs.Bool("degrade", true, "enable the overload degradation ladder (full ↔ cache-only on the windowed rewrite p99, reported per response in X-WeTune-Service-Level)")
	degradeSample := fs.Duration("degrade-sample", 0, "degradation controller sampling period (0 = the 100ms default)")
	of := addObsFlags(fs)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	finish := of.start()
	defer finish()

	srv, err := server.New(server.Config{
		Schemas:         serveSchemas(),
		DefaultApp:      "demo",
		Workers:         *workers,
		QueueDepth:      *queue,
		RequestTimeout:  *timeout,
		MaxBodyBytes:    *maxBody,
		ResultCacheSize: *resultCache,
		Degradation: server.DegradationConfig{
			Disabled:    !*degrade,
			SampleEvery: *degradeSample,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return exitError
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Fprintf(os.Stderr, "wetune serve on %s (POST /v1/rewrite, POST /v1/explain, GET /v1/rules, GET /healthz, GET /readyz)\n", *addr)

	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			return exitError
		}
		return exitOK
	case <-ctx.Done():
	}

	fmt.Fprintf(os.Stderr, "serve: draining (grace %v)\n", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "serve: drain incomplete:", err)
		return exitError
	}
	<-errc // ListenAndServe has returned nil after a graceful Shutdown
	fmt.Fprintln(os.Stderr, "serve: drained cleanly")
	return exitOK
}
