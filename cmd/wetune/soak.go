package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"time"

	"wetune/internal/loadgen"
)

// cmdSoak runs the chaos soak harness: an in-process server with an
// aggressive degradation ladder, a closed-loop load run with pushback
// retries, and the default fault schedule playing over it. The run's
// invariants (see loadgen.RunSoak) decide the exit code — this is the gating
// CI chaos job.
func cmdSoak(args []string) int {
	fs := newFlagSet("soak")
	inprocess := fs.Bool("inprocess", false, "required: soak an in-process server (the harness owns the server lifecycle; remote targets are not supported)")
	dur := fs.Duration("d", 10*time.Second, "load-phase duration (the fault schedule scales to it)")
	conc := fs.Int("c", 0, "concurrent load workers (0 = 2×GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "fault-decision and jitter seed; same seed, same injected-fault decision streams")
	asJSON := fs.Bool("json", false, "print the soak report as JSON")
	of := addObsFlags(fs)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if !*inprocess {
		fmt.Fprintln(os.Stderr, "soak: -inprocess is required (the harness builds and drains its own server)")
		return exitUsage
	}
	finish := of.start()
	defer finish()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := loadgen.RunSoak(ctx, loadgen.SoakOptions{
		Duration:    *dur,
		Concurrency: *conc,
		Seed:        *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "soak:", err)
		return exitError
	}

	if *asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak:", err)
			return exitError
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(rep.Render())
	}
	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "soak: FAILED with %d invariant violations\n", len(rep.Violations))
		return exitError
	}
	return exitOK
}
