package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"

	"wetune/internal/obs"
	"wetune/internal/obs/journal"
)

// obsFlags is the observability flag set every long-running subcommand
// shares: -metrics dumps the registry as JSON on exit, -debug-addr serves
// expvar + pprof live, and -journal dumps the always-on flight recorder as
// JSONL. The journal additionally dumps on SIGINT and on any recorded
// anomaly, so a crash or wedge leaves the last anomalies and service-level
// changes on disk.
type obsFlags struct {
	metricsFile string
	debugAddr   string
	journalFile string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	f := &obsFlags{}
	fs.StringVar(&f.metricsFile, "metrics", "", "write the metrics registry (counters, gauges, histograms) as JSON to FILE on exit")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on ADDR, e.g. :6060, while the run is live")
	fs.StringVar(&f.journalFile, "journal", "", fmt.Sprintf("dump the flight recorder (the last %d anomalies and service-level changes) as JSONL to FILE on exit, SIGINT, or anomaly", journal.DefaultSize))
	return f
}

// start arms the configured sinks and returns the function the subcommand
// must call on its normal exit path (idempotent; safe under a concurrent
// signal-triggered dump).
func (f *obsFlags) start() (finish func()) {
	if f.debugAddr != "" {
		obs.PublishExpvar("wetune", obs.Default())
		srv := &http.Server{Addr: f.debugAddr} // default mux: expvar + pprof via imports
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug endpoint on %s (/debug/vars, /debug/pprof/)\n", f.debugAddr)
	}

	var dumpMu sync.Mutex
	dumpJournal := func(when string) {
		if f.journalFile == "" {
			return
		}
		dumpMu.Lock()
		defer dumpMu.Unlock()
		if err := journal.Default().DumpFile(f.journalFile); err != nil {
			fmt.Fprintf(os.Stderr, "journal dump (%s): %v\n", when, err)
			return
		}
		if when != "exit" {
			fmt.Fprintf(os.Stderr, "journal dumped to %s (%s)\n", f.journalFile, when)
		}
	}
	if f.journalFile != "" {
		journal.Default().SetAnomalySink(func(reason string) {
			fmt.Fprintln(os.Stderr, "anomaly:", reason)
			dumpJournal("anomaly: " + reason)
		})
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		go func() {
			for range sig {
				dumpJournal("interrupted")
			}
		}()
	}

	return func() {
		dumpJournal("exit")
		if f.journalFile != "" {
			fmt.Fprintf(os.Stderr, "journal written to %s (%d events recorded)\n",
				f.journalFile, journal.Default().Written())
		}
		if f.metricsFile != "" {
			if err := obs.Default().DumpFile(f.metricsFile); err != nil {
				fmt.Fprintln(os.Stderr, "metrics dump:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "metrics written to %s\n", f.metricsFile)
		}
	}
}
