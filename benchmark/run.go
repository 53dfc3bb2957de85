package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"wetune/internal/pipeline"
	"wetune/internal/template"
)

// runConfig is one workload run as the command line describes it.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // shrunken inputs, for tests and -smoke
	traceOut string // directory for the raw span log, "" = not written
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func (c runConfig) corpusSize() corpusSize {
	if c.smoke {
		return smokeCorpus
	}
	return fullCorpus
}

// Set-up is repeated within a run and its median reported, so that setup_s is
// steadier than one cold measurement.
const (
	setupRepsQuery    = 3
	setupRepsDiscover = 9
)

// repeatSetup runs setup reps times, tearing down every environment but the
// last, and returns the last environment with the median set-up time.
func repeatSetup[E any](reps int, setup func() (E, error), teardown func(E)) (env E, seconds float64, err error) {
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(env)
		}
		t0 := time.Now()
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return env, median(times), nil
}

func newResult(cfg runConfig) *result {
	return &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: metrics{}, Info: map[string]any{},
	}
}

// finish fills in the verdict from the failure log.
func (r *result) finish(attempted int64, fails *failureLog) {
	r.Attempted = max(attempted, 1)
	r.Failed = fails.count()
	r.Correct = r.Failed == 0
	r.Failures = fails.first
}

// setEndToEnd writes the end-to-end set from one measured phase.
func (r *result) setEndToEnd(setupS float64, s loopSummary, use usage, costRatio float64, rules int) {
	m := r.Metrics
	n := float64(s.Ops)
	m.set("setup_s", setupS)
	m.set("ops_per_s", s.OpsPerS)
	m.set("op_p50_us", s.P50US)
	m.set("op_p99_us", s.P99US)
	m.set("cpu_us_per_op", s.CPUUS)
	m.set("allocs_per_op", ratio(float64(use.Mallocs), n))
	m.set("alloc_kb_per_op", ratio(float64(use.Bytes)/1024, n))
	m.set("cost_ratio", costRatio)
	m.set("rules_found", float64(rules))
	r.Info["samples"] = s.All.Samples
	r.Info["windows"] = s.Windows
	r.Info["windows_disturbed"] = s.Disturbed
	r.Info["ops_per_s_whole_phase"] = ratio(n, use.Wall.Seconds())
	r.Info["tail_percentile"] = s.All.TailPct
	r.Info["tail_us"] = s.All.TailUS
	r.Info["phase_wall_s"] = use.Wall.Seconds()
}

// runWorkload dispatches one run.
func runWorkload(cfg runConfig) (*result, error) {
	switch cfg.workload {
	case wlRewriteCold:
		return runRewriteColdWorkload(cfg)
	case wlServeHot:
		return runServeWorkload(cfg, true)
	case wlServeMiss:
		return runServeWorkload(cfg, false)
	case wlDiscover:
		return runDiscoverWorkload(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
}

func runRewriteColdWorkload(cfg runConfig) (*result, error) {
	guard := newMachineGuard()
	env, setupS, err := repeatSetup(setupRepsQuery,
		func() (*rewriteEnv, error) { return setupRewrite(cfg.seed, cfg.corpusSize()) },
		func(*rewriteEnv) {})
	if err != nil {
		return nil, err
	}
	fails := &failureLog{}
	orc, err := newOracle(cfg.seed, env.schemas, env.opts)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	checked := verifyRewrites(env, orc, allIndexes(len(env.corpus)), fails)
	r := newResult(cfg)
	r.Info["corpus_queries"] = len(env.corpus)
	r.Info["corpus_excluded_unplannable"] = env.excluded
	r.Info["oracle_executed"] = checked
	r.Info["oracle_s"] = time.Since(t0).Seconds()
	r.Info["output_sha256"] = env.outputSHA256()

	if !cfg.trace {
		ph, attempts := guard.steady(cfg.duration(), func() phase { return runRewriteCold(env, cfg.duration(), fails) })
		r.setEndToEnd(setupS, ph.loopSummary, ph.Use, ratio(ph.CostAfter, ph.CostBefore), env.fired)
		guard.report(r, attempts)
		r.finish(int64(ph.Ops), fails)
		return r, nil
	}

	ref := runRewriteCold(env, cfg.duration()/2, fails)
	st := newStager(env.schemas)
	tr := newTracer(time.Now())
	counts, err := stagedPass(env, st, tr, env.corpus, cfg.duration())
	if err != nil {
		return nil, err
	}
	r.Metrics = newPerLayer()
	rewriteLayerMetrics(r.Metrics, tr, counts)
	if err := setStageAllocs(r.Metrics, st, env.corpus); err != nil {
		return nil, err
	}
	r.Metrics.set("driver.trace_overhead_ratio", ratio(tr.medianDur("wetune.optimize")/1e3, ref.P50US))
	r.Info["staged_share_of_optimize"] = stagedShare(tr)
	r.Info["traced_ops"] = counts.ops
	r.Info["reference_p50_us"] = ref.P50US
	if err := cfg.writeTrace(tr.kept); err != nil {
		return nil, err
	}
	r.finish(int64(ref.Ops)+counts.ops, fails)
	return r, nil
}

func setStageAllocs(m metrics, st *stager, queries []query) error {
	parse, build, search, fp, err := st.stageAllocs(queries)
	if err != nil {
		return err
	}
	m.set("sql.parse_allocs", parse)
	m.set("plan.build_allocs", build)
	m.set("rewrite.search_allocs", search)
	m.set("plan.fingerprint_allocs", fp)
	return nil
}

func (c runConfig) writeTrace(spans []span) error {
	if c.traceOut == "" {
		return nil
	}
	return writeTrace(c.traceOut, c.workload, spans)
}

// firedAmong counts the distinct library rules that fired on the given corpus
// queries in the reference pass.
func (env *rewriteEnv) firedAmong(indexes []int) int {
	fired := map[int]bool{}
	for _, i := range indexes {
		for _, a := range env.expect[i].Applied {
			fired[a.RuleNo] = true
		}
	}
	return len(fired)
}

func runServeWorkload(cfg runConfig, hot bool) (*result, error) {
	guard := newMachineGuard()
	env, setupS, err := repeatSetup(setupRepsQuery,
		func() (*serveEnv, error) { return setupServe(cfg.seed, cfg.corpusSize(), hot, cfg.trace) },
		(*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	fails := &failureLog{}
	orc, err := newOracle(cfg.seed, env.schemas, env.opts)
	if err != nil {
		return nil, err
	}
	population := env.population()
	t0 := time.Now()
	checked := verifyRewrites(env.rewriteEnv, orc, population, fails)
	r := newResult(cfg)
	r.Info["corpus_queries"] = len(env.corpus)
	r.Info["corpus_excluded_unplannable"] = env.excluded
	r.Info["working_set"] = len(population)
	r.Info["oracle_executed"] = checked
	r.Info["oracle_s"] = time.Since(t0).Seconds()
	r.Info["clients"] = len(env.clients)
	if !hot {
		t1 := time.Now()
		r.Info["cache_fill_requests"] = env.fill(fails)
		r.Info["cache_fill_s"] = time.Since(t1).Seconds()
	}

	if !cfg.trace {
		var totals []*laneTotals
		ph, attempts := guard.steady(cfg.duration(), func() (ph phase) {
			ph, totals = env.closedLoop(cfg.duration(), fails, nil)
			return ph
		})
		guard.report(r, attempts)
		decoded, executed := env.checkSamples(totals, orc, fails)
		var attempted, cached int64
		for _, tot := range totals {
			attempted += tot.attempted
			cached += tot.cached
		}
		r.setEndToEnd(setupS, ph.loopSummary, ph.Use, ratio(ph.CostAfter, ph.CostBefore), env.firedAmong(population))
		r.Info["responses_decoded"] = decoded
		r.Info["oracle_executed_variants"] = executed
		r.Info["result_cache_hit_ratio"] = ratio(float64(cached), float64(ph.Ops))
		r.finish(attempted, fails)
		return r, nil
	}

	if err := traceServe(cfg, env, r, population, fails); err != nil {
		return nil, err
	}
	return r, nil
}

// stagedPassQueries bounds the staged library pass of a traced serve run.
const stagedPassQueries = 1000

// traceServe is the traced serve run: an untraced reference phase, the traced
// closed loop (every response decoded and replayed on cache-enabled library
// optimizers, handler spans from the timing middleware), the open-loop
// diagnostic, and a staged library pass over the workload's own query texts.
func traceServe(cfg runConfig, env *serveEnv, r *result, population []int, fails *failureLog) error {
	ref, refTotals := env.closedLoop(cfg.duration()/2, fails, nil)
	lib, err := env.newLibrary()
	if err != nil {
		return err
	}
	_, _, planHits0, planAll0 := cacheTraffic(lib)
	tr := newTracer(time.Now())
	ph, totals := env.closedLoop(cfg.duration(), fails, lib)
	_, _, planHits1, planAll1 := cacheTraffic(lib)
	skipped := env.joinSpans(tr, totals)

	rate := float64(openRateMiss)
	if env.hot {
		rate = openRateHot
	}
	openLat, openLate := env.openLoop(rate, cfg.duration()/2, fails)

	var attempted, cached, rejected, timedOut, degraded int64
	var sizes []int64
	for _, tot := range append(totals, refTotals...) {
		attempted += tot.attempted
		rejected += tot.rejected
		timedOut += tot.timedOut
		degraded += tot.degraded
	}
	for _, tot := range totals {
		cached += tot.cached
		for _, op := range tot.ops {
			sizes = append(sizes, int64(op.bytes))
		}
	}
	m := newPerLayer()
	r.Metrics = m
	m.set("server.handler_us", tr.medianDur("server.handler")/1e3)
	m.set("server.transport_us", tr.medianSelf("client.roundtrip")/1e3)
	m.set("server.self_us", tr.medianSelf("server.handler")/1e3)
	m.set("server.response_bytes", medianNS(sizes))
	m.set("server.rejected_share", ratio(float64(rejected), float64(attempted)))
	m.set("server.timeout_share", ratio(float64(timedOut), float64(attempted)))
	m.set("server.degraded_share", ratio(float64(degraded), float64(attempted)))
	open, late := summarize(openLat), summarize(openLate)
	m.set("server.open_p50_us", open.P50)
	m.set("server.open_p99_us", open.P99)
	m.set("driver.late_p99_us", late.P99)
	m.set("driver.trace_overhead_ratio", ratio(ph.P50US, ref.P50US))
	m.set("rewrite.result_cache_hit_ratio", ratio(float64(cached), float64(ph.Ops)))
	m.set("rewrite.plan_cache_hit_ratio", ratio(float64(planHits1-planHits0), float64(planAll1-planAll0)))
	r.Info["open_loop_rate_per_s"] = rate
	r.Info["open_loop_samples"] = open.Samples
	r.Info["open_loop_unresolved"] = late.P99 > open.P99/10
	r.Info["traced_ops"] = ph.Ops
	r.Info["traced_p50_us"] = ph.P50US
	r.Info["reference_p50_us"] = ref.P50US
	r.Info["lanes_not_joined"] = skipped

	// The rewrite layers under this workload's queries: a staged library pass
	// over the texts the server was sent, after the server has gone quiet.
	var queries []query
	rng := rngFor(cfg.seed, streamSample)
	for _, i := range population[:min(len(population), stagedPassQueries)] {
		q := env.corpus[i]
		if !env.hot {
			q.SQL = env.muts[i].text(rng.Int63n(literalSpace))
		}
		queries = append(queries, q)
	}
	st := newStager(env.schemas)
	stageTr := newTracer(tr.base)
	counts, err := stagedPass(env.rewriteEnv, st, stageTr, queries, 0)
	if err != nil {
		return err
	}
	rewriteLayerMetrics(m, stageTr, counts)
	if err := setStageAllocs(m, st, queries); err != nil {
		return err
	}
	if err := cfg.writeTrace(append(tr.kept, stageTr.kept...)); err != nil {
		return err
	}
	r.finish(attempted+int64(len(openLat)), fails)
	return nil
}

// discoverSummary condenses one repetition's prover calls.
func discoverSummary(rep repetition) (opsPerS, p50, p99 float64) {
	s := summarize(rep.calls)
	return ratio(float64(len(rep.calls)), rep.use.Wall.Seconds()), s.P50, s.P99
}

// report records what the guard did in the run's info.
func (g *machineGuard) report(r *result, attempts int) {
	r.Info["phase_attempts"] = attempts
	r.Info["quiet_wait_s"] = g.Waited.Seconds()
	r.Info["quiet_probes"] = g.Probes
}

// ruleStrings renders a rule set in sorted order, for comparing sets.
func ruleStrings(rules []pipeline.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func runDiscoverWorkload(cfg runConfig) (*result, error) {
	guard := newMachineGuard()
	env, setupS, err := repeatSetup(setupRepsDiscover,
		func() (*discoverEnv, error) { return setupDiscover(cfg.smoke), nil },
		func(*discoverEnv) {})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	fails := &failureLog{}
	r := newResult(cfg)
	r.Info["templates"] = len(env.templates)
	r.Info["seed_alters_input"] = false

	if !cfg.trace {
		// Repetitions until the phase length has passed and one of them ran
		// undisturbed, within the guard's budget. The metrics come from the
		// undisturbed repetitions (from all of them when there is none).
		var reps, quiet []repetition
		for begin := time.Now(); len(quiet) == 0 || time.Since(begin) < cfg.duration(); {
			if len(reps) > 0 && !guard.mayStart(reps[len(reps)-1].use.Wall) {
				break
			}
			guard.waitQuiet()
			rep := env.runDiscovery(ctx)
			reps = append(reps, rep)
			if rep.stolen <= disturbedShare {
				quiet = append(quiet, rep)
			}
		}
		measured := quiet
		if len(measured) == 0 {
			measured = reps
		}
		var rate, p50, p99 []float64
		var all []uint32
		var use usage
		for _, rep := range measured {
			a, b, c := discoverSummary(rep)
			rate, p50, p99 = append(rate, a), append(p50, b), append(p99, c)
			all = append(all, rep.calls...)
			use.Wall += rep.use.Wall
			use.CPU += rep.use.CPU
			use.Mallocs += rep.use.Mallocs
			use.Bytes += rep.use.Bytes
		}
		first := rulesSHA256(reps[0].rules)
		for i, rep := range reps[1:] {
			if sha := rulesSHA256(rep.rules); sha != first {
				fails.add("repetition %d emitted rule set %s, repetition 0 %s", i+1, sha, first)
			}
		}
		agreed, skipped, known := checkRules(reps[0].rules, cfg.seed, loadGolden().OracleRefutedRules, fails)
		s := loopSummary{
			Ops: len(all), All: summarize(all), OpsPerS: median(rate), P50US: median(p50), P99US: median(p99),
			CPUUS: ratio(float64(use.CPU.Nanoseconds())/1e3, float64(len(all))),
		}
		// cost_ratio has no meaning where nothing is rewritten; it is the
		// constant 1 so that every workload reports every end-to-end metric.
		r.setEndToEnd(setupS, s, use, 1, len(reps[0].rules))
		r.Info["repetitions"] = len(reps)
		r.Info["repetitions_disturbed"] = len(reps) - len(quiet)
		guard.report(r, len(reps))
		r.Info["repetition_wall_s"] = reps[0].use.Wall.Seconds()
		r.Info["prover_calls_per_repetition"] = len(reps[0].calls)
		r.Info["pairs_tried"] = reps[0].stats.PairsTried
		r.Info["rules_sha256"] = first
		r.Info["oracle_rules_agreed"] = agreed
		r.Info["oracle_rules_skipped"] = skipped
		r.Info["oracle_rules_refuted_known"] = known
		r.finish(int64(len(all)), fails)
		return r, nil
	}

	if err := traceDiscover(ctx, cfg, env, r, fails); err != nil {
		return nil, err
	}
	return r, nil
}

// traceDiscover is the traced discovery run: one untraced reference
// repetition, one traced repetition on the benchmark's own worker pool, and
// single-threaded probes of the template-level layers.
func traceDiscover(ctx context.Context, cfg runConfig, env *discoverEnv, r *result, fails *failureLog) error {
	ref := env.runDiscovery(ctx)
	tr := newTracer(time.Now())
	tr.begin()
	tr.timed("template.enumerate", 0, func() { _ = template.Enumerate(template.EnumOptions{MaxSize: 2}) })
	tr.finish()
	delta := registryDelta("intern_hits", "intern_nodes", "smt_outcome_sat", "smt_outcome_unsat", "smt_outcome_unknown")
	pairTr, d, wall := env.tracedRepetition(ctx)
	reg := delta()
	tr.merge(pairTr)
	spesProved, spesTotal := env.templateProbes(tr)
	if !slices.Equal(ruleStrings(d.rules), ruleStrings(ref.rules)) {
		return fmt.Errorf("traced repetition emitted %d rules, the untraced one %d, or different ones: the traced prover does not mirror pipeline.DefaultPairProver", len(d.rules), len(ref.rules))
	}

	m := newPerLayer()
	r.Metrics = m
	calls := float64(d.calls)
	tried := float64(d.stats.PairsTried)
	pairUS := tr.dur["pipeline.run_pair"]
	m.set("template.enumerate_ms", tr.medianDur("template.enumerate")/1e6)
	m.set("template.count", float64(len(env.templates)))
	m.set("constraint.enumerate_us", tr.medianDur("constraint.enumerate")/1e3)
	m.set("constraint.cstar_size", ratio(float64(d.cstar), tried))
	m.set("constraint.closure_us", tr.medianDur("constraint.closure")/1e3)
	m.set("pipeline.pairs_generated", float64(d.generated))
	m.set("pipeline.pairs_tried", tried)
	m.set("pipeline.pairs_skipped", float64(d.stats.PairsSkipped))
	m.set("pipeline.prover_calls", float64(d.stats.ProverCalls))
	m.set("pipeline.relax_self_ms", tr.medianSelf("pipeline.run_pair")/1e6)
	m.set("pipeline.pair_ms_p50", medianNS(pairUS)/1e6)
	if len(pairUS) > 0 {
		m.set("pipeline.pair_ms_max", float64(slices.Max(pairUS))/1e6)
	}
	m.set("pipeline.worker_busy_share", ratio(d.busy.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	m.set("pipeline.proof_cache_hit_ratio", ratio(float64(d.stats.CacheHits), float64(d.stats.CacheHits+d.stats.CacheMisses)))
	m.set("pipeline.rules_per_kcall", ratio(1000*float64(len(d.rules)), float64(d.stats.ProverCalls)))
	callNS := slices.Clone(tr.dur["verify.call"])
	slices.Sort(callNS)
	m.set("verify.call_us_p50", float64(nearestRank(callNS, 50))/1e3)
	m.set("verify.call_us_p99", float64(nearestRank(callNS, 99))/1e3)
	m.set("verify.paircontext_build_us", tr.medianDur("verify.paircontext_build")/1e3)
	m.set("verify.algebraic_share", ratio(float64(d.algebraic), calls))
	m.set("verify.smt_share", ratio(float64(d.smt), calls))
	m.set("verify.rejected_share", ratio(float64(d.rejected), calls))
	m.set("uexpr.translate_us", tr.medianDur("uexpr.translate")/1e3)
	m.set("uexpr.normalize_us", tr.medianDur("uexpr.normalize")/1e3)
	m.set("fol.translate_us", tr.medianDur("fol.translate")/1e3)
	smtNS := slices.Clone(tr.dur["smt.solve"])
	slices.Sort(smtNS)
	m.set("smt.solve_us_p50", float64(nearestRank(smtNS, 50))/1e3)
	m.set("smt.solve_us_p99", float64(nearestRank(smtNS, 99))/1e3)
	m.set("smt.decisions_per_call", ratio(float64(d.decisions), float64(d.smtCalls)))
	m.set("smt.unknown_share", ratio(reg["smt_outcome_unknown"], reg["smt_outcome_sat"]+reg["smt_outcome_unsat"]+reg["smt_outcome_unknown"]))
	m.set("intern.hit_ratio", ratio(reg["intern_hits"], reg["intern_hits"]+reg["intern_nodes"]))
	m.set("intern.nodes_per_call", ratio(reg["intern_nodes"], calls))
	m.set("spes.rule_ms_p50", tr.medianDur("spes.verify_rule")/1e6)
	m.set("spes.proved_share", ratio(float64(spesProved), float64(spesTotal)))
	_, refP50, _ := discoverSummary(ref)
	m.set("driver.trace_overhead_ratio", ratio(float64(nearestRank(callNS, 50))/1e3, refP50))

	// Prover self time, relaxation self time and the pair-context builds
	// partition the workers' busy time by construction; the share printed is
	// the check that the spans were joined as intended.
	accounted := tr.sumDur("verify.call") + tr.sumDur("verify.paircontext_build")
	for _, v := range tr.self["pipeline.run_pair"] {
		accounted += float64(v)
	}
	for _, v := range tr.dur["pipeline.skipped_pair"] {
		accounted += float64(v)
	}
	r.Info["accounted_share_of_busy"] = ratio(accounted, float64(d.busy.Nanoseconds()))
	r.Info["traced_wall_s"] = wall.Seconds()
	r.Info["reference_wall_s"] = ref.use.Wall.Seconds()
	r.Info["rules_found"] = len(d.rules)
	if err := cfg.writeTrace(tr.kept); err != nil {
		return err
	}
	r.finish(int64(len(ref.calls))+d.calls, fails)
	return nil
}
