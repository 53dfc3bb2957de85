package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"time"

	"wetune/internal/loadgen"
	"wetune/internal/server"
)

// cmdLoadtest drives POST /v1/rewrite with the fixed rewrite corpus — against
// a live server (-addr) or an in-process daemon (-inprocess, no sockets) —
// and reports throughput, exact p50/p90/p99 latency and error counts. A run
// that saw transport errors or non-injected 5xx responses exits 1.
func cmdLoadtest(args []string) int {
	fs := newFlagSet("loadtest")
	addr := fs.String("addr", "http://localhost:8080", "target server base URL")
	inprocess := fs.Bool("inprocess", false, "drive an in-process server handler instead of -addr (no network; isolates the daemon from the socket stack)")
	conc := fs.Int("c", 8, "concurrent workers (closed loop: each issues its next request when the previous answers)")
	dur := fs.Duration("d", 5*time.Second, "run duration")
	rate := fs.Float64("rate", 0, "offered requests/second across all workers; request k is due at start+k/rate and its latency counts from then (0 = closed loop, as fast as responses return)")
	iters := fs.Int64("n", 0, "total request bound (0 = none; the run then stops on -d)")
	perApp := fs.Int("per-app", 20, "corpus size: queries per application archetype")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout (also sent as timeout_ms so the server budget matches)")
	asJSON := fs.Bool("json", false, "print the report as JSON")
	profile := fs.String("profile", "", "capture a pprof profile during the run: \"cpu\" or \"alloc\" (most useful with -inprocess, where server work runs in this process)")
	profileOut := fs.String("profile-out", "", "profile output path (default <profile>.pprof)")
	retries := fs.Int("retries", 0, "re-issue 429/503 pushback up to N attempts per request with capped exponential backoff honoring Retry-After (0 = no retries; -chaos defaults to 3)")
	chaos := fs.Bool("chaos", false, "play the default fault-injection schedule during the run (requires -inprocess; injected 5xx are reported separately and do not fail the run)")
	seed := fs.Int64("seed", 1, "fault-decision and retry-jitter seed (used with -chaos)")
	of := addObsFlags(fs)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if *chaos && !*inprocess {
		fmt.Fprintln(os.Stderr, "loadtest: -chaos requires -inprocess (the fault registry lives in this process)")
		return exitUsage
	}
	if *chaos && *retries == 0 {
		*retries = 3
	}
	finish := of.start()
	defer finish()

	switch *profile {
	case "", "cpu", "alloc":
	default:
		fmt.Fprintf(os.Stderr, "loadtest: -profile must be \"cpu\" or \"alloc\", got %q\n", *profile)
		return exitUsage
	}
	profPath := *profileOut
	if profPath == "" && *profile != "" {
		profPath = *profile + ".pprof"
	}

	opts := loadgen.Options{
		Concurrency: *conc,
		Duration:    *dur,
		Iterations:  *iters,
		Rate:        *rate,
		PerApp:      *perApp,
		Timeout:     *timeout,
		Retry:       loadgen.RetryPolicy{MaxAttempts: *retries},
		Seed:        *seed,
	}
	if *inprocess {
		srv, err := server.New(server.Config{
			Schemas:    serveSchemas(),
			DefaultApp: "demo",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			return exitError
		}
		opts.Handler = srv.Handler()
	} else {
		opts.BaseURL = *addr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *profile == "cpu" {
		f, err := os.Create(profPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			return exitError
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			return exitError
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "loadtest: cpu profile written to %s\n", profPath)
		}()
	}

	var chaosCancel context.CancelFunc
	if *chaos {
		var chaosCtx context.Context
		chaosCtx, chaosCancel = context.WithCancel(ctx)
		go loadgen.PlaySchedule(chaosCtx, *seed, loadgen.DefaultSchedule(*dur))
	}

	rep, err := loadgen.Run(ctx, opts)
	if chaosCancel != nil {
		chaosCancel()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		return exitError
	}

	if *profile == "alloc" {
		f, err := os.Create(profPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			return exitError
		}
		// The "allocs" profile reports cumulative allocation since process
		// start — dominated by the run that just finished.
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			return exitError
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "loadtest: alloc profile written to %s\n", profPath)
	}

	if *asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadtest:", err)
			return exitError
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(rep.Render())
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: %d errors (transport failures or non-injected 5xx)\n", rep.Errors)
		return exitError
	}
	return exitOK
}
