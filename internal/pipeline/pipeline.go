// Package pipeline is the staged rule-discovery engine behind WeTune's rule
// generation (§4). It decomposes the search into composable stages —
//
//	template enumeration → pair generation → constraint-set
//	enumeration/relaxation → verification
//
// — each running on a bounded worker pool with context.Context cancellation
// plumbed end to end (a cancelled context interrupts the in-flight SMT proof,
// not just the next pair boundary), per-stage counters, and a
// concurrency-safe proof memo cache keyed by canonical rule fingerprint so
// that enumeration, rule reduction and repeated runs reuse verdicts instead
// of re-invoking the U-expression/FOL/SMT chain.
//
// wetune.Discover, the CLI and the evaluation harness all call Run.
// Determinism contract: with the same options and an
// uncancelled context, the discovered rule set is identical across runs,
// worker counts, and cache temperatures (a warm cache lowers prover calls but
// never alters the search trajectory).
package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/obs"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// Metric names recorded by the pipeline (see internal/obs and DESIGN.md).
const (
	metricStageTemplates = "pipeline_stage_templates_seconds"
	metricPairSeconds    = "pipeline_pair_seconds"
	metricProverSeconds  = "pipeline_prover_seconds"
	metricQueueDepth     = "pipeline_queue_depth"
	metricCacheHits      = "pipeline_cache_hits"
	metricCacheMisses    = "pipeline_cache_misses"
	metricPairsTried     = "pipeline_pairs_tried"
	metricPairsSkipped   = "pipeline_pairs_skipped"
	metricRulesFound     = "pipeline_rules_found"
	metricRulesXChecked  = "pipeline_rules_crosschecked_out"
)

// Rule is a discovered rewrite rule <q_src, q_dest, C>.
type Rule struct {
	Src         *template.Node
	Dest        *template.Node
	Constraints *constraint.Set
}

// String renders the rule in Table 7's flattened form.
func (r Rule) String() string {
	return r.Src.String() + "  =>  " + r.Dest.String() + "  under " + r.Constraints.String()
}

// Prover decides whether src and dest are equivalent under cs. Provers must
// honor ctx: when it is cancelled mid-proof they return promptly (the verdict
// is then discarded, not cached).
type Prover func(ctx context.Context, src, dest *template.Node, cs *constraint.Set) bool

// PairProverFactory builds a prover specialized to one template pair. The
// relaxation search probes many constraint sets against the same pair, so a
// factory can hoist the constraint-independent verification work (template
// translation, normalization skeletons, the SMT hash-consing pool) out of
// the per-probe path — see verify.PairContext. The returned Prover is only
// ever called from the single worker goroutine owning the pair.
type PairProverFactory func(src, dest *template.Node) Prover

// DefaultPairProver verifies with the built-in verifier's algebraic path plus
// a small SMT budget, honoring ctx inside the solver loop, on a per-pair
// verification context: translation/normalization/FOL derivation are done
// once per pair instead of once per probe.
func DefaultPairProver(src, dest *template.Node) Prover {
	pc := verify.NewPairContext(src, dest)
	return func(ctx context.Context, _, _ *template.Node, cs *constraint.Set) bool {
		opts := verify.DefaultOptions()
		opts.Context = ctx
		opts.SMT.MaxNodes = 20000
		return pc.VerifyOpts(cs, opts).Outcome == verify.Verified
	}
}

// AlgebraicPairProver uses only the algebraic normalization path (fast; used
// for large sweeps and the ablation comparison), on a per-pair context.
func AlgebraicPairProver(src, dest *template.Node) Prover {
	pc := verify.NewPairContext(src, dest)
	return func(ctx context.Context, _, _ *template.Node, cs *constraint.Set) bool {
		opts := verify.DefaultOptions()
		opts.Context = ctx
		opts.SkipSMT = true
		return pc.VerifyOpts(cs, opts).Outcome == verify.Verified
	}
}

// defaultMaxConstraints is the largest C* a pair may have to be searched.
const defaultMaxConstraints = 90

// Options configures a pipeline run. Its unexported budgets are set only by
// this package's tests; zero selects the default.
type Options struct {
	// Templates to pair; if nil, template.Enumerate(MaxTemplateSize) runs as
	// the pipeline's first stage.
	Templates []*template.Node
	// MaxTemplateSize bounds enumerated templates when Templates is nil
	// (default 2; the paper's size-4 run took 36 hours on 120 cores).
	MaxTemplateSize int
	// PairProver is called once per template pair; the relaxation probes the
	// Prover it returns. Defaults to DefaultPairProver.
	PairProver PairProverFactory
	// maxProverCallsPerPair bounds the relaxation per template pair (500).
	// Cache hits charge it too, keeping warm and cold trajectories equal.
	maxProverCallsPerPair int
	// maxConstraints skips pairs whose C* is larger (defaultMaxConstraints).
	maxConstraints int
	// deletionOrders is the number of minimization orders tried, each able
	// to surface a different most-relaxed set (3).
	deletionOrders int
	// Workers bounds pair-level parallelism; 0 = GOMAXPROCS.
	Workers int
	// DisablePruning turns off the implication pruning (ablation benchmark).
	DisablePruning bool
	// Cache shares proof verdicts, and the SMT goals solved on the way to
	// them, across stages and runs; nil uses a fresh private cache (verdicts
	// still dedupe isomorphic pairs, and solves repeated goals, within the
	// run).
	Cache *ProofCache
	// CacheNamespace prefixes every cache key. Provers of different strength
	// must not share verdicts (an algebraic "false" would mask an SMT-provable
	// rule, and vice versa an SMT "true" would leak into algebraic-only runs),
	// so callers switching provers set a distinct namespace per prover. Empty
	// (the default) is the historical namespace of the algebraic path.
	CacheNamespace string
	// Progress, when set, receives a stats snapshot at every stage boundary
	// and every progressEvery (32) completed pairs. Calls are serialized.
	Progress      func(Snapshot)
	progressEvery int
	// Metrics is the registry the run records into (stage latency histograms,
	// queue depth, cache hit/miss counters); nil uses obs.Default().
	Metrics *obs.Registry
	// TraceSlow, when > 0, records a span tree per template pair (pair →
	// prove → verify → smt.solve) and hands trees of pairs slower than the
	// threshold to SlowPair. Zero disables span recording entirely.
	TraceSlow time.Duration
	// SlowPair receives the root span of each pair slower than TraceSlow.
	// Calls are serialized. Nil drops the trees (histograms still record).
	SlowPair func(*obs.Span)
	// CrossCheck, when set, is called for every verifier-accepted rule before
	// it is emitted; returning false drops the rule. The standard hook is the
	// differential-testing oracle (difftest.CheckRule via wetune.Discover),
	// which executes both templates on concrete data and compares results
	// under bag semantics. Calls happen on worker goroutines and must be
	// thread-safe; ctx is the pair's context (cancellation-aware).
	CrossCheck func(ctx context.Context, r Rule) bool
}

func (o *Options) fill() {
	if o.MaxTemplateSize <= 0 {
		o.MaxTemplateSize = 2
	}
	if o.PairProver == nil {
		o.PairProver = DefaultPairProver
	}
	if o.maxProverCallsPerPair == 0 {
		o.maxProverCallsPerPair = 500
	}
	if o.maxConstraints == 0 {
		o.maxConstraints = defaultMaxConstraints
	}
	if o.deletionOrders == 0 {
		o.deletionOrders = 3
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.progressEvery <= 0 {
		o.progressEvery = 32
	}
	if o.Cache == nil {
		o.Cache = NewProofCache()
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default()
	}
}

// Stats reports per-stage search effort.
type Stats struct {
	// Stage 1: template enumeration.
	Templates       int
	TemplateElapsed time.Duration
	// Stage 2: pair generation.
	PairsGenerated int64
	// Stage 3: constraint enumeration/relaxation.
	PairsTried   int64
	PairsSkipped int64
	// Stage 4: verification (prover calls are cache misses).
	ProverCalls int64
	CacheHits   int64
	// CacheMisses is the in-run miss count observed on the ProofCache (the
	// cache tracks both sides; hits alone cannot give a rate).
	CacheMisses int64
	// CacheSize is the cache's current verdict count (includes verdicts
	// loaded from disk or left by earlier runs of a shared cache).
	CacheSize int
	// Outcome.
	RulesFound int64
	// RulesCrossCheckedOut counts verifier-accepted rules dropped by the
	// CrossCheck hook (always 0 when the hook is unset).
	RulesCrossCheckedOut int64
	Elapsed              time.Duration
}

// CacheHitRate returns the in-run proof-cache hit rate in [0, 1], or 0 before
// any lookup.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Snapshot is a point-in-time view of the run handed to Progress callbacks.
type Snapshot struct {
	// Stage is the pipeline stage just entered or advanced: "templates",
	// "pairs", "search", "done".
	Stage string
	Stats Stats
}

// counters is the concurrent backing store for Stats.
type counters struct {
	templates       int
	templateElapsed time.Duration
	pairsGenerated  atomic.Int64
	pairsTried      atomic.Int64
	pairsSkipped    atomic.Int64
	proverCalls     atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	rulesFound      atomic.Int64
	crossCheckedOut atomic.Int64
	start           time.Time
	// cache, when set, contributes its size to snapshots (hit/miss deltas are
	// tracked per-run in cacheHits/cacheMisses above, so shared caches do not
	// leak earlier runs' traffic into this run's stats).
	cache *ProofCache
}

func (c *counters) snapshot() Stats {
	st := Stats{
		Templates:            c.templates,
		TemplateElapsed:      c.templateElapsed,
		PairsGenerated:       c.pairsGenerated.Load(),
		PairsTried:           c.pairsTried.Load(),
		PairsSkipped:         c.pairsSkipped.Load(),
		ProverCalls:          c.proverCalls.Load(),
		CacheHits:            c.cacheHits.Load(),
		CacheMisses:          c.cacheMisses.Load(),
		RulesFound:           c.rulesFound.Load(),
		RulesCrossCheckedOut: c.crossCheckedOut.Load(),
		Elapsed:              time.Since(c.start),
	}
	if c.cache != nil {
		st.CacheSize = c.cache.Len()
	}
	return st
}

// Result is the outcome of a pipeline run.
type Result struct {
	Rules []Rule
	Stats Stats
}

type pair struct{ src, dest *template.Node }

// Run executes the discovery pipeline. A cancelled or expired ctx stops pair
// generation, aborts in-flight proofs, and returns promptly with the rules
// found so far and partial stats.
func Run(ctx context.Context, opts Options) *Result {
	opts.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	ct := &counters{start: time.Now(), cache: opts.Cache}
	reg := opts.Metrics
	// Pre-register the run's counters: metrics are created lazily, and a
	// zero-valued metric that never appears in the export is indistinguishable
	// from one that was never wired ("0 cache hits" on a cold run is signal).
	for _, name := range []string{
		metricCacheHits, metricCacheMisses, metricPairsTried,
		metricPairsSkipped, metricRulesFound, metricRulesXChecked,
	} {
		reg.Counter(name)
	}
	var progressMu sync.Mutex
	emit := func(stage string) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		opts.Progress(Snapshot{Stage: stage, Stats: ct.snapshot()})
		progressMu.Unlock()
	}

	// Stage 1: template enumeration.
	emit("templates")
	templates := opts.Templates
	if templates == nil {
		templates = template.Enumerate(template.EnumOptions{MaxSize: opts.MaxTemplateSize})
	}
	ct.templates = len(templates)
	ct.templateElapsed = time.Since(ct.start)
	reg.Histogram(metricStageTemplates).Observe(ct.templateElapsed)

	// Stage 2: pair generation, streamed so cancellation needs no drain of a
	// quadratic backlog. The queue-depth gauge distinguishes a starved pool
	// (depth pinned at 0: generation is the bottleneck) from a clogged one
	// (depth pinned high: a pathological pair holds every worker).
	emit("pairs")
	queueDepth := reg.Gauge(metricQueueDepth)
	pairs := make(chan pair, opts.Workers)
	go func() {
		defer close(pairs)
		for _, src := range templates {
			for _, dest := range templates {
				if !dest.NotMoreOpsThan(src) {
					continue
				}
				p := pair{src, RenameApart(src, dest)}
				select {
				case pairs <- p:
					ct.pairsGenerated.Add(1)
					queueDepth.Add(1)
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	// Stage 3+4: relaxation and verification on the worker pool.
	emit("search")
	res := &Result{}
	pairHist := reg.Histogram(metricPairSeconds)
	rulesFound := reg.Counter(metricRulesFound)
	var mu sync.Mutex
	var slowMu sync.Mutex
	var wg sync.WaitGroup
	var completed atomic.Int64
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range pairs {
				queueDepth.Add(-1)
				if ctx.Err() != nil {
					ct.pairsSkipped.Add(1)
					reg.Counter(metricPairsSkipped).Inc()
					continue
				}
				pctx := ctx
				var sp *obs.Span
				if opts.TraceSlow > 0 {
					pctx, sp = obs.StartSpan(ctx, "pair "+p.src.String()+" => "+p.dest.String())
				}
				begin := time.Now()
				rules := searchPair(pctx, p.src, p.dest, opts, ct)
				rules = applyCrossCheck(pctx, rules, opts, ct)
				pairHist.Observe(time.Since(begin))
				if sp != nil {
					sp.SetNote("%d rules", len(rules))
					if sp.End() >= opts.TraceSlow && opts.SlowPair != nil {
						slowMu.Lock()
						opts.SlowPair(sp)
						slowMu.Unlock()
					}
				}
				if len(rules) > 0 {
					mu.Lock()
					res.Rules = append(res.Rules, rules...)
					mu.Unlock()
					ct.rulesFound.Add(int64(len(rules)))
					rulesFound.Add(int64(len(rules)))
				}
				if n := completed.Add(1); n%int64(opts.progressEvery) == 0 {
					emit("search")
				}
			}
		}()
	}
	wg.Wait()
	sortRules(res.Rules)
	res.Stats = ct.snapshot()
	emit("done")
	return res
}

// RunPair runs the constraint relaxation stage for a single, pre-renamed
// template pair (the destination's symbols must be distinct from the
// source's). Used by targeted tests and per-pair tracing.
func RunPair(ctx context.Context, src, dest *template.Node, opts Options) ([]Rule, Stats) {
	opts.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	ct := &counters{start: time.Now(), templates: 2, cache: opts.Cache}
	rules := searchPair(ctx, src, dest, opts, ct)
	rules = applyCrossCheck(ctx, rules, opts, ct)
	ct.rulesFound.Add(int64(len(rules)))
	return rules, ct.snapshot()
}

// applyCrossCheck filters verifier-accepted rules through the optional
// CrossCheck hook, dropping rules the hook rejects. Drops are counted both in
// the run's Stats and in the metrics registry.
func applyCrossCheck(ctx context.Context, rules []Rule, opts Options, ct *counters) []Rule {
	if opts.CrossCheck == nil || len(rules) == 0 {
		return rules
	}
	kept := rules[:0]
	for _, r := range rules {
		if opts.CrossCheck(ctx, r) {
			kept = append(kept, r)
		} else {
			ct.crossCheckedOut.Add(1)
			opts.Metrics.Counter(metricRulesXChecked).Inc()
		}
	}
	return kept
}
