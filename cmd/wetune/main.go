// Command wetune is the CLI front end: discover rules, verify rules, rewrite
// queries, serve rewrites over HTTP, and regenerate the paper's evaluation
// tables.
//
// Usage:
//
//	wetune discover [-size N] [-budget 30s] [-workers N] [-progress]
//	                [-prover full|algebraic] [-crosscheck]
//	                [-metrics FILE] [-debug-addr :6060] [-journal FILE]
//	                                            run rule discovery (Ctrl-C cancels and still
//	                                            prints the rules found so far; a run -budget
//	                                            or Ctrl-C cut says so and exits 3; -prover picks
//	                                            algebraic + SMT or the algebraic path alone;
//	                                            -crosscheck drops rules the in-memory engine
//	                                            refutes; -metrics dumps the registry as JSON
//	                                            on exit; -debug-addr serves expvar + pprof
//	                                            live; -journal dumps the flight recorder)
//	wetune rules                                print the Table 7 rule library
//	wetune verify                               verify the rule library with both verifiers
//	wetune fuzz [-seed N] [-n N] [-budget 30s] [-rows N] [-repro FILE] [-all]
//	                                            differentially test every rule against the
//	                                            in-memory engine on random schemas/data/queries;
//	                                            exits 1 on mismatch and writes a shrunken,
//	                                            replayable counterexample to -repro
//	wetune fuzz -replay FILE                    re-execute a saved repro and report whether the
//	                                            mismatch still reproduces
//	wetune rewrite -q "SELECT ..." [-json] [-n N] [-deadline D]
//	                                            rewrite one query over the demo schema;
//	                                            -json emits input/output SQL, the applied
//	                                            rule chain, cost before/after, search stats
//	                                            and result-cache traffic as JSON; -n repeats
//	                                            the rewrite to exercise the result cache;
//	                                            -deadline bounds the search wall clock (an
//	                                            expired deadline returns the best plan found
//	                                            so far and exits 3)
//	wetune explain -q "SELECT ..." [-json]      rewrite one query and render the full
//	                                            derivation: the search's steps with per-step
//	                                            paths and size deltas, each step's candidates
//	                                            not taken, and the per-rule why-not funnel;
//	                                            the applied chain and costs match wetune rewrite
//	wetune serve [-addr :8080] [-workers N] [-queue N] [-timeout 10s]
//	             [-max-body N] [-result-cache N] [-grace 15s]
//	             [-degrade=false] [-degrade-sample D]
//	                                            run the rewrite-as-a-service daemon over the
//	                                            demo schema plus every workload app schema:
//	                                            POST /v1/rewrite, POST /v1/explain,
//	                                            GET /v1/rules, GET /healthz, GET /readyz;
//	                                            bounded admission (429 on overload), graceful
//	                                            drain on SIGINT/SIGTERM; a batch rewrite
//	                                            runs its queries in order on one worker;
//	                                            -result-cache sizes each app's query→result
//	                                            cache; -grace bounds the drain; -degrade=false
//	                                            turns off the full ↔ cache-only ladder and
//	                                            -degrade-sample sets its sampling period
//	wetune loadtest [-addr URL | -inprocess] [-c N] [-d 5s] [-rate R] [-n N]
//	                [-per-app N] [-timeout 5s] [-json] [-profile cpu|alloc]
//	                [-profile-out FILE] [-retries N] [-seed N]
//	                                            drive a server (or an in-process handler)
//	                                            over the fixed rewrite corpus and report
//	                                            throughput, p50/p90/p99 latency and error
//	                                            counts (a smoke and profiling tool; committed
//	                                            performance numbers come from benchmark/);
//	                                            -json prints the report as JSON; -profile
//	                                            captures a pprof profile during the run;
//	                                            -retries re-issues 429/503 pushback with backoff;
//	                                            exits 1 when the run saw transport errors or
//	                                            5xx responses
//	wetune soak [-d 10s] [-c N] [-seed N] [-json]
//	                                            chaos soak: run an in-process server with an
//	                                            aggressive degradation ladder under load while
//	                                            the default fault schedule injects cache
//	                                            stalls/misses, search starvation, encode
//	                                            failures and handler panics, then assert the
//	                                            run's invariants (no non-injected 5xx, ladder
//	                                            degraded and recovered, no stuck in-flight
//	                                            work, clean drain); exits 1 on any violation
//	wetune report rules [-json] [-per-app N]    run the fixed rewrite workload and report
//	                                            per-rule effectiveness: fire/win/no-op
//	                                            counts, size-delta histograms, and the
//	                                            dead-rule list
//	wetune report serve -metrics FILE [-json]   render the serving-side view of a metrics
//	                                            registry dump (responses, admission, the
//	                                            result cache, batches, latency)
//	wetune bench [experiment]                   regenerate evaluation artifacts
//	                                            (table1 study50 discovery table7 apps
//	                                             calcite latency casestudy verifiers
//	                                             timeout table6 ablations reduction | all)
//
// Exit codes are uniform across subcommands and distinguish failure from
// success-with-truncation:
//
//	0  success
//	1  runtime error (bad SQL, I/O failure, fuzz mismatch, loadtest 5xx)
//	2  usage error (unknown subcommand, bad or missing flags)
//	3  success, but the step budget or a deadline truncated the rewrite
//	   (rewrite/explain: Stats.Truncated — the output is correct, a larger
//	   budget may improve it), or -budget or Ctrl-C cut discovery short
//	   (discover: Stats.Cut — the rules are sound, a larger budget may find
//	   more)
//
// Every long-running subcommand (discover, fuzz, rewrite, explain, serve,
// loadtest, soak, report) also accepts the shared
// observability flags: -metrics FILE dumps the metrics registry as JSON on
// exit, -debug-addr ADDR serves expvar + pprof live, and -journal FILE dumps
// the always-on flight recorder (the last 256 anomalies and service-level
// changes) as JSONL on exit, SIGINT, or recorded anomaly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	_ "expvar" // registers /debug/vars on the default mux for -debug-addr
	"flag"
	"fmt"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux for -debug-addr
	"os"
	"os/signal"
	"time"

	"wetune"
	"wetune/internal/analytics"
	"wetune/internal/bench"
	"wetune/internal/difftest"
	"wetune/internal/rules"
	"wetune/internal/spes"
	"wetune/internal/verify"
	"wetune/internal/workload"
)

// Exit codes (see the package comment's table). exitTruncated is
// deliberately distinct from exitError: scripts can tell "the rewrite failed"
// from "the rewrite succeeded but a budget cut the search".
const (
	exitOK        = 0
	exitError     = 1
	exitUsage     = 2
	exitTruncated = 3
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run dispatches a subcommand and returns its exit code. It never calls
// os.Exit itself, so the exit-code table is testable in-process.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return exitUsage
	}
	switch args[0] {
	case "discover":
		return cmdDiscover(args[1:])
	case "rules":
		return cmdRules()
	case "verify":
		return cmdVerify()
	case "fuzz":
		return cmdFuzz(args[1:])
	case "rewrite":
		return cmdRewrite(args[1:])
	case "explain":
		return cmdExplain(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "loadtest":
		return cmdLoadtest(args[1:])
	case "soak":
		return cmdSoak(args[1:])
	case "report":
		return cmdReport(args[1:])
	case "bench":
		return cmdBench(args[1:])
	default:
		usage()
		return exitUsage
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wetune <discover|rules|verify|fuzz|rewrite|explain|serve|loadtest|soak|report|bench> [flags]")
}

// newFlagSet builds a flag set that reports parse failures via error (so run
// can map them to exitUsage) instead of exiting the process.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

func cmdDiscover(args []string) int {
	fs := newFlagSet("discover")
	size := fs.Int("size", 2, "max template size (2 takes under a second; 3 about 3.5 s with the default -prover full and 1.3 s with -prover algebraic; 4 about 48 s with -prover full and 31 s with -prover algebraic, on 2 vCPUs; the paper uses 4)")
	budget := fs.Duration("budget", 60*time.Second, "wall-clock budget (interrupts in-flight proofs)")
	workers := fs.Int("workers", 0, "search workers (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "print per-stage progress while searching")
	prover := fs.String("prover", "full", "candidate prover: full (algebraic + SMT fallback) or algebraic (fast path only)")
	of := addObsFlags(fs)
	crossCheck := fs.Bool("crosscheck", false, "differentially test every verifier-accepted rule against the in-memory engine and drop rules the oracle refutes")
	if fs.Parse(args) != nil {
		return exitUsage
	}

	finish := of.start()

	// Ctrl-C cancels the run and the rules found so far are still printed;
	// stop() then restores default signal handling, so a second Ctrl-C
	// force-kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	context.AfterFunc(ctx, stop)

	// The budget wraps the Ctrl-C context instead of replacing it, so only
	// Ctrl-C, not the budget, calls stop above.
	runCtx := ctx
	if *budget > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}
	opts := wetune.DiscoveryOptions{
		MaxTemplateSize: *size,
		Workers:         *workers,
		Context:         runCtx,
		CrossCheck:      *crossCheck,
	}
	switch *prover {
	case "full":
		opts.UseSMT = true
	case "algebraic":
	default:
		fmt.Fprintf(os.Stderr, "discover: unknown -prover %q (want full or algebraic)\n", *prover)
		return exitUsage
	}
	if *progress {
		opts.Progress = func(p wetune.DiscoveryProgress) {
			fmt.Fprintf(os.Stderr, "[%s] templates=%d pairs=%d/%d prover=%d memo=%d/%d (%.0f%% hit) rules=%d %.1fs\n",
				p.Stage, p.Stats.Templates, p.Stats.PairsTried, p.Stats.PairsGenerated,
				p.Stats.ProverCalls, p.Stats.CacheHits, p.Stats.CacheHits+p.Stats.CacheMisses,
				100*p.Stats.CacheHitRate(), p.Stats.RulesFound, p.Stats.Elapsed.Seconds())
		}
	}
	res := wetune.Discover(opts)
	fmt.Printf("templates: %d; pairs tried: %d (%d skipped); prover calls: %d; memo hits: %d (%.0f%% of probes); rules: %d; elapsed: %v\n",
		res.Stats.Templates, res.Stats.PairsTried, res.Stats.PairsSkipped, res.Stats.ProverCalls, res.Stats.CacheHits,
		100*res.Stats.CacheHitRate(), len(res.Rules), res.Stats.Elapsed.Round(time.Millisecond))
	if *crossCheck {
		fmt.Printf("cross-check: %d verifier-accepted rules refuted by the engine oracle and dropped\n",
			res.Stats.RulesCrossCheckedOut)
	}
	for i, r := range res.Rules {
		fmt.Printf("%4d  %s\n      => %s\n      under %s\n", i+1, r.Source, r.Destination, r.Constraints)
	}
	finish()
	if cut := res.Stats.Cut; cut != nil {
		how := "interrupt"
		if errors.Is(cut.Cause, context.DeadlineExceeded) {
			how = fmt.Sprintf("%v -budget", *budget)
		}
		fmt.Printf("(discovery cut by %s: %d pairs unsearched; a longer run may find more rules)\n", how, cut.Unsearched)
		return exitTruncated
	}
	return exitOK
}

func cmdRules() int {
	for _, r := range wetune.BuiltinRules() {
		fmt.Printf("rule %3d  %-32s verifier=%s calcite=%v mssql=%s\n",
			r.No, r.Name, r.Verifier, r.Calcite, r.MS)
		fmt.Printf("          %s\n       => %s\n", r.Src, r.Dest)
		fmt.Printf("          %s\n", r.Constraints)
	}
	return exitOK
}

func cmdVerify() int {
	for _, r := range rules.Table7() {
		rep := verify.Verify(r.Src, r.Dest, r.Constraints)
		sOK, _ := spes.VerifyRule(r.Src, r.Dest, r.Constraints)
		fmt.Printf("rule %3d  %-32s builtin=%-10v spes=%v (paper: %s)\n",
			r.No, r.Name, rep.Outcome, sOK, r.Verifier)
	}
	return exitOK
}

func cmdFuzz(args []string) int {
	fs := newFlagSet("fuzz")
	seed := fs.Int64("seed", 1, "root seed; the same seed replays the same run")
	n := fs.Int("n", 500, "fuzzing iterations (schema+data+query draws)")
	budget := fs.Duration("budget", 0, "wall-clock bound for the whole run (0 = none)")
	rows := fs.Int("rows", 30, "rows per generated table")
	reproFile := fs.String("repro", "", "write the first mismatch's shrunken counterexample as JSON to FILE")
	replayFile := fs.String("replay", "", "re-execute a saved repro instead of fuzzing; exits 1 if the mismatch still reproduces")
	all := fs.Bool("all", false, "keep fuzzing after the first mismatch and report every one")
	of := addObsFlags(fs)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	finish := of.start()
	defer finish()

	if *replayFile != "" {
		rp, err := difftest.LoadRepro(*replayFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzz: load repro:", err)
			return exitError
		}
		fmt.Println(rp.Summary())
		mismatch, err := rp.Replay()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzz: replay:", err)
			return exitError
		}
		if mismatch {
			fmt.Println("replay: mismatch REPRODUCES")
			return exitError
		}
		fmt.Println("replay: plans now agree (mismatch no longer reproduces)")
		return exitOK
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := difftest.Run(ctx, difftest.Options{
		Seed:           *seed,
		N:              *n,
		Budget:         *budget,
		RowsPerTable:   *rows,
		StopOnMismatch: !*all,
		Progress:       func(line string) { fmt.Fprintln(os.Stderr, line) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzz:", err)
		return exitError
	}
	fmt.Printf("fuzz: seed=%d iterations=%d candidates=%d mismatches=%d elapsed=%v\n",
		*seed, rep.Iterations, rep.Candidates, len(rep.Mismatches), rep.Elapsed.Round(time.Millisecond))
	if len(rep.Mismatches) == 0 {
		return exitOK
	}
	for _, m := range rep.Mismatches {
		fmt.Printf("\nMISMATCH at iteration %d: rule %d (%s)\n%s\n%s\n",
			m.Iteration, m.RuleNo, m.RuleName, m.Diff, m.Repro.Summary())
	}
	if *reproFile != "" {
		if err := rep.Mismatches[0].Repro.Save(*reproFile); err != nil {
			fmt.Fprintln(os.Stderr, "fuzz: save repro:", err)
		} else {
			fmt.Fprintf(os.Stderr, "repro written to %s (replay with: wetune fuzz -replay %s)\n",
				*reproFile, *reproFile)
		}
	}
	return exitError
}

// rewriteOutput is cmdRewrite's -json envelope: the rewrite result plus the
// optimizer's result-cache traffic for the invocation.
type rewriteOutput struct {
	*wetune.RewriteResult
	ResultCache *wetune.CacheStats `json:"result_cache,omitempty"`
}

func cmdRewrite(args []string) int {
	fs := newFlagSet("rewrite")
	query := fs.String("q", "", "SQL query over the demo GitLab schema (labels, notes, projects, issues)")
	asJSON := fs.Bool("json", false, "emit the machine-readable result (input/output SQL, applied rule chain, cost before/after, search stats, cache traffic) as JSON")
	repeat := fs.Int("n", 1, "rewrite the query N times (exercises the result cache; N-1 hits expected)")
	deadline := fs.Duration("deadline", 0, "wall-clock bound for the rewrite search (0 = none); an expired deadline returns the best plan found so far and exits 3")
	of := addObsFlags(fs)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	finish := of.start()
	defer finish()
	if *query == "" {
		fmt.Fprintln(os.Stderr, "rewrite: -q is required")
		return exitUsage
	}
	schema := demoSchema()
	opt := wetune.NewOptimizer(wetune.BuiltinRules(), schema)
	opt.EnableResultCache(0)
	var res *wetune.RewriteResult
	var err error
	for i := 0; i < *repeat || i == 0; i++ {
		ctx := context.Background()
		var cancel context.CancelFunc = func() {}
		if *deadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, *deadline)
		}
		res, err = opt.OptimizeSQLResultContext(ctx, *query)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return exitError
		}
	}
	cache, _ := opt.ResultCacheStats()
	if *asJSON {
		data, err := json.MarshalIndent(rewriteOutput{res, &cache}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return exitError
		}
		fmt.Println(string(data))
		if res.Stats.Truncated {
			return exitTruncated
		}
		return exitOK
	}
	fmt.Println("original: ", res.Input)
	fmt.Println("rewritten:", res.Output)
	if len(res.Applied) == 0 {
		fmt.Println("(no rule applied)")
	}
	for _, a := range res.Applied {
		fmt.Printf("  applied rule %d (%s)\n", a.RuleNo, a.RuleName)
	}
	if res.Stats.Truncated {
		fmt.Printf("(search truncated by %s budget; a larger budget may find more rewrites)\n", res.Stats.TruncatedBy)
	}
	fmt.Printf("result cache: %d hits / %d misses (%.0f%% hit rate, %d entries)\n",
		cache.Hits, cache.Misses, 100*cache.HitRate, cache.Entries)
	if res.Stats.Truncated {
		return exitTruncated
	}
	return exitOK
}

// cmdExplain rewrites one query like cmdRewrite but records and renders the
// full derivation: the search's steps with per-step node paths and size
// deltas, the candidates each step did not take, and the per-rule why-not
// funnel. The
// embedded result is computed with the same budgets as `wetune rewrite`, so
// the applied chain and costs are identical.
func cmdExplain(args []string) int {
	fs := newFlagSet("explain")
	query := fs.String("q", "", "SQL query over the demo GitLab schema (labels, notes, projects, issues)")
	asJSON := fs.Bool("json", false, "emit the machine-readable result (rewrite result + full provenance record) as JSON")
	of := addObsFlags(fs)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	finish := of.start()
	defer finish()
	if *query == "" {
		fmt.Fprintln(os.Stderr, "explain: -q is required")
		return exitUsage
	}
	opt := wetune.NewOptimizer(wetune.BuiltinRules(), demoSchema())
	res, err := opt.ExplainSQL(context.Background(), *query)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return exitError
	}
	if *asJSON {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return exitError
		}
		fmt.Println(string(data))
		if res.Stats.Truncated {
			return exitTruncated
		}
		return exitOK
	}
	fmt.Println("original: ", res.Input)
	fmt.Println("rewritten:", res.Output)
	fmt.Printf("size:      %d -> %d\n", res.Stats.InitialSize, res.Stats.FinalSize)
	prov := res.Provenance
	fmt.Println("\nderivation:")
	fmt.Print(prov.RenderSteps())
	fmt.Println("\nwhy-not (per-rule funnel):")
	fmt.Print(prov.RenderWhyNot())
	if res.Stats.Truncated {
		fmt.Printf("\n(search truncated by %s budget; a larger budget may find more rewrites)\n", res.Stats.TruncatedBy)
		return exitTruncated
	}
	return exitOK
}

// cmdReport renders workload-level analytics: "rules" (per-rule
// effectiveness over the fixed rewrite corpus) or "serve" (the serving-side
// view of a metrics registry dump).
func cmdReport(args []string) int {
	if len(args) >= 1 && args[0] == "serve" {
		return cmdReportServe(args[1:])
	}
	if len(args) < 1 || args[0] != "rules" {
		fmt.Fprintln(os.Stderr, "usage: wetune report <rules [-json] [-per-app N] | serve -metrics FILE [-json]>")
		return exitUsage
	}
	fs := newFlagSet("report rules")
	asJSON := fs.Bool("json", false, "emit the full report (per-rule funnels, size-delta histograms, dead list, registry deltas) as JSON")
	perApp := fs.Int("per-app", 100, "queries per application archetype (the bench workload uses 100)")
	of := addObsFlags(fs)
	if fs.Parse(args[1:]) != nil {
		return exitUsage
	}
	finish := of.start()
	defer finish()
	rep := analytics.Rules(*perApp)
	if *asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return exitError
		}
		fmt.Println(string(data))
	} else {
		fmt.Print(rep.Render())
	}
	return exitOK
}

func demoSchema() *wetune.Schema {
	s := wetune.NewSchema()
	s.AddTable(&wetune.TableDef{
		Name: "labels",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "title", Type: wetune.TString},
			{Name: "project_id", Type: wetune.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	s.AddTable(&wetune.TableDef{
		Name: "notes",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "type", Type: wetune.TString},
			{Name: "commit_id", Type: wetune.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	s.AddTable(&wetune.TableDef{
		Name: "projects",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "name", Type: wetune.TString},
		},
		PrimaryKey: []string{"id"},
	})
	s.AddTable(&wetune.TableDef{
		Name: "issues",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "project_id", Type: wetune.TInt, NotNull: true},
			{Name: "title", Type: wetune.TString},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []wetune.ForeignKey{
			{Columns: []string{"project_id"}, RefTable: "projects", RefColumns: []string{"id"}},
		},
	})
	return s
}

func cmdBench(args []string) int {
	which := "all"
	if len(args) > 0 {
		which = args[0]
	}
	experiments := []struct {
		name string
		run  func() *bench.Report
	}{
		{"table1", bench.Table1},
		{"study50", bench.Study50},
		{"discovery", func() *bench.Report { return bench.RuleDiscovery(2) }},
		{"table7", bench.Table7Verification},
		{"apps", func() *bench.Report { return bench.AppRewrites(workload.DefaultPerApp) }},
		{"calcite", bench.CalciteRewrites},
		{"latency", func() *bench.Report { return bench.WorkloadsLatency(20, 60, 21) }},
		{"casestudy", func() *bench.Report { return bench.CaseStudy(50000) }},
		{"verifiers", func() *bench.Report { return bench.VerifierComparison(2) }},
		{"timeout", bench.TimeoutStudy},
		{"table6", bench.Table6Capabilities},
		{"ablations", nil}, // expanded below
		{"reduction", bench.RuleReduction},
	}
	ran := false
	for _, e := range experiments {
		if which != "all" && which != e.name {
			continue
		}
		ran = true
		if e.name == "ablations" {
			fmt.Println(bench.AblationConstraintPruning())
			fmt.Println(bench.AblationVerifierPaths())
			continue
		}
		fmt.Println(e.run())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		return exitUsage
	}
	return exitOK
}
