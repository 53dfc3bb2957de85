// Package pipeline is the staged rule-discovery engine behind WeTune's rule
// generation (§4). It decomposes the search into composable stages —
//
//	template enumeration → pair generation → constraint-set
//	enumeration/relaxation → verification
//
// — each running on a bounded worker pool with context.Context cancellation
// plumbed end to end (a cancelled context interrupts the in-flight SMT proof,
// not just the next pair boundary) and per-stage counters. The relaxation
// memoizes each pair's verdicts by constraint-set key, and the run's
// ProofCache holds the smt.Memo that solves each distinct SMT goal once.
//
// wetune.Discover, the CLI and the evaluation harness all call Run.
// Determinism contract: with the same options and an uncancelled context,
// the discovered rule set and the prover-call count are identical across
// runs, worker counts, and cache temperatures (a warm solve memo answers
// goals without a search, and a solve's verdict does not depend on it).
package pipeline

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/obs"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// Metric names recorded by the pipeline (DESIGN.md "Metric names").
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
// is then discarded, not cached). A prover must not keep cs, or anything that
// reads it, after it returns: the relaxation rebuilds the storage of a set it
// has asked about into its next candidate (constraint.Set.Without). What a
// prover derives from cs — a key, a unification — is its own.
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
	// (default 2). On 2 vCPUs size 3 takes about 1.3 s with
	// AlgebraicPairProver and 3.5 s with DefaultPairProver, and size 4 about
	// 31 s and 48 s; the paper's size-4 run took 36 hours on 120 cores.
	MaxTemplateSize int
	// PairProver is called once per template pair; the relaxation probes the
	// Prover it returns. Defaults to DefaultPairProver.
	PairProver PairProverFactory
	// maxProverCallsPerPair bounds the relaxation per template pair (500);
	// answers from the pair's memo do not charge it.
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
	// Cache holds the SMT goals the run's provers solve; nil uses a fresh
	// private cache (repeated goals are still solved once within the run). A
	// caller may pass one cache to several runs, which then search no goal
	// an earlier run solved; rules and prover calls are the same either way.
	Cache *ProofCache
	// Progress, when set, receives a stats snapshot at every stage boundary
	// and every progressEvery (32) completed pairs. Calls are serialized.
	Progress      func(Snapshot)
	progressEvery int
	// Metrics is the registry the run records into (stage latency histograms,
	// queue depth, memo hit and prover-call counters); nil uses obs.Default().
	Metrics *obs.Registry
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
	// Stage 4: verification. CacheHits counts the probes a pair's verdict
	// memo answered, and CacheMisses those it did not: the prover calls,
	// always equal to ProverCalls.
	ProverCalls int64
	CacheHits   int64
	CacheMisses int64
	// Outcome.
	RulesFound int64
	// RulesCrossCheckedOut counts verifier-accepted rules dropped by the
	// CrossCheck hook (always 0 when the hook is unset).
	RulesCrossCheckedOut int64
	Elapsed              time.Duration
	// Cut is set when the run's context ended it before every pair was
	// searched to the end, and nil for a complete run.
	Cut *Cut
}

// Cut records that a run's context ended it early: the rules are those
// found so far, and a longer budget may find more.
type Cut struct {
	// Cause is the context's error: context.DeadlineExceeded for a budget,
	// context.Canceled for a cancellation.
	Cause error
	// Unsearched counts the pairs not searched to the end: those never
	// generated, those dequeued after the context ended, and those whose
	// relaxation it interrupted.
	Unsearched int64
}

// CacheHitRate returns the share of probes the verdict memos answered, in
// [0, 1], or 0 before any probe.
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
	memoHits        atomic.Int64
	rulesFound      atomic.Int64
	crossCheckedOut atomic.Int64
	unsearched      atomic.Int64 // Cut.Unsearched
	start           time.Time
	// The registry's memo-hit and prover-call counters and prover latency,
	// resolved once per run so that no probe looks a metric up.
	hits, misses  *obs.Counter
	proverSeconds *obs.Histogram
}

func newCounters(reg *obs.Registry) *counters {
	return &counters{
		start:         time.Now(),
		hits:          reg.Counter(metricCacheHits),
		misses:        reg.Counter(metricCacheMisses),
		proverSeconds: reg.Histogram(metricProverSeconds),
	}
}

func (c *counters) snapshot() Stats {
	calls := c.proverCalls.Load()
	return Stats{
		Templates:            c.templates,
		TemplateElapsed:      c.templateElapsed,
		PairsGenerated:       c.pairsGenerated.Load(),
		PairsTried:           c.pairsTried.Load(),
		PairsSkipped:         c.pairsSkipped.Load(),
		ProverCalls:          calls,
		CacheHits:            c.memoHits.Load(),
		CacheMisses:          calls,
		RulesFound:           c.rulesFound.Load(),
		RulesCrossCheckedOut: c.crossCheckedOut.Load(),
		Elapsed:              time.Since(c.start),
	}
}

// final is the snapshot a run returns: with a Cut when ctx ended it before
// every pair was searched to the end.
func (c *counters) final(ctx context.Context) Stats {
	st := c.snapshot()
	if n := c.unsearched.Load(); n > 0 && ctx.Err() != nil {
		st.Cut = &Cut{Cause: ctx.Err(), Unsearched: n}
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
	ct := newCounters(opts.Metrics)
	reg := opts.Metrics
	// Pre-register the run's counters: metrics are created lazily, and a
	// zero-valued metric that never appears in the export is indistinguishable
	// from one that was never wired ("0 rules cross-checked out" is signal).
	for _, name := range []string{
		metricPairsTried, metricPairsSkipped, metricRulesFound, metricRulesXChecked,
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
		for i, src := range templates {
			for j, dest := range templates {
				if !dest.NotMoreOpsThan(src) {
					continue
				}
				p := pair{src, RenameApart(src, dest)}
				select {
				case pairs <- p:
					ct.pairsGenerated.Add(1)
					queueDepth.Add(1)
				case <-ctx.Done():
					ct.unsearched.Add(pairsFrom(templates, i, j))
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
					ct.unsearched.Add(1)
					reg.Counter(metricPairsSkipped).Inc()
					continue
				}
				begin := time.Now()
				rules := searchPair(ctx, p.src, p.dest, opts, ct)
				rules = applyCrossCheck(ctx, rules, opts, ct)
				pairHist.Observe(time.Since(begin))
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
	res.Stats = ct.final(ctx)
	emit("done")
	return res
}

// pairsFrom counts the pairs pair generation makes from source templates[i]
// and destination templates[j] on, in its loop order: what is left when the
// context stops it there. The filter reads operator counts only, so whole
// rows are counted by classes of templates with equal counts.
func pairsFrom(templates []*template.Node, i, j int) int64 {
	var n int64
	for _, dest := range templates[j:] {
		if dest.NotMoreOpsThan(templates[i]) {
			n++
		}
	}
	type class struct {
		rep     *template.Node
		members int64
		row     int64 // pairs in a row whose source is of the class; -1 until counted
	}
	var classes []class
	of := make([]int, len(templates))
	for k, t := range templates {
		c := slices.IndexFunc(classes, func(c class) bool { return t.NotMoreOpsThan(c.rep) && c.rep.NotMoreOpsThan(t) })
		if c < 0 {
			c = len(classes)
			classes = append(classes, class{rep: t, row: -1})
		}
		classes[c].members++
		of[k] = c
	}
	for _, k := range of[i+1:] {
		src := &classes[k]
		if src.row < 0 {
			src.row = 0
			for _, dest := range classes {
				if dest.rep.NotMoreOpsThan(src.rep) {
					src.row += dest.members
				}
			}
		}
		n += src.row
	}
	return n
}

// RunPair runs the constraint relaxation stage for a single, pre-renamed
// template pair (the destination's symbols must be distinct from the
// source's). Used by targeted tests and the benchmark's per-pair timing.
func RunPair(ctx context.Context, src, dest *template.Node, opts Options) ([]Rule, Stats) {
	opts.fill()
	if ctx == nil {
		ctx = context.Background()
	}
	ct := newCounters(opts.Metrics)
	ct.templates = 2
	rules := searchPair(ctx, src, dest, opts, ct)
	rules = applyCrossCheck(ctx, rules, opts, ct)
	ct.rulesFound.Add(int64(len(rules)))
	return rules, ct.final(ctx)
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
