// Package wetune is a from-scratch Go reproduction of "WeTune: Automatic
// Discovery and Verification of Query Rewrite Rules" (SIGMOD 2022).
//
// WeTune discovers SQL rewrite rules automatically: it enumerates symbolic
// query-plan templates, pairs them, and searches for the most-relaxed
// constraint sets under which an SMT-based verifier proves the pair
// equivalent. Discovered rules rewrite real queries — including the
// counter-intuitive shapes ORMs generate — that mainstream optimizers miss.
//
// This package is the public facade; the machinery lives in internal/
// packages (see DESIGN.md for the system inventory):
//
//	Discover       — enumerate templates and search for rules (§4)
//	VerifyRule     — the built-in U-expression/FOL/SMT verifier (§5.1)
//	VerifySPES     — the SPES-style normalizing verifier (§5.2)
//	NewOptimizer   — rule-driven query rewriting over a schema (§6, §7)
//	NewDatabase    — the in-memory execution engine used for evaluation
//
// The quickstart example:
//
//	schema := wetune.MustParseSchema(...)
//	opt := wetune.NewOptimizer(wetune.BuiltinRules(), schema)
//	res, _ := opt.OptimizeSQLResult("SELECT * FROM t WHERE id IN (SELECT id FROM t)")
//	fmt.Println(res.Output, res.Applied)
package wetune

import (
	"context"
	"fmt"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/datagen"
	"wetune/internal/difftest"
	"wetune/internal/engine"
	"wetune/internal/obs"
	"wetune/internal/pipeline"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/rules"
	"wetune/internal/spes"
	"wetune/internal/sql"
	"wetune/internal/verify"
)

// Re-exported core types.
type (
	// Schema describes tables, columns and integrity constraints.
	Schema = sql.Schema
	// TableDef is one table's definition.
	TableDef = sql.TableDef
	// Column is one column definition.
	Column = sql.Column
	// ForeignKey declares a referential constraint.
	ForeignKey = sql.ForeignKey
	// Value is a runtime SQL value.
	Value = sql.Value
	// Rule is a rewrite rule <q_src, q_dest, C> with Table 7 metadata.
	Rule = rules.Rule
	// Plan is a logical query plan.
	Plan = plan.Node
	// DB is the in-memory execution engine.
	DB = engine.DB
	// Row is one tuple.
	Row = engine.Row
)

// Column type constants.
const (
	TInt    = sql.TInt
	TFloat  = sql.TFloat
	TString = sql.TString
	TBool   = sql.TBool
)

// Value constructors.
var (
	NewInt    = sql.NewInt
	NewFloat  = sql.NewFloat
	NewString = sql.NewString
	NewBool   = sql.NewBool
	Null      = sql.Null
)

// NewSchema creates an empty schema; add tables with AddTable and call
// Validate before use.
func NewSchema() *Schema { return sql.NewSchema() }

// ParseSchema parses CREATE TABLE statements into a validated schema.
func ParseSchema(ddl string) (*Schema, error) { return sql.ParseDDL(ddl) }

// MustParseSchema is ParseSchema that panics on error.
func MustParseSchema(ddl string) *Schema { return sql.MustParseDDL(ddl) }

// BuiltinRules returns the useful rules of the paper's Table 7 that a
// verifier proves (all but rule 25) plus the extra rules this
// implementation's own discovery pipeline found and verified.
func BuiltinRules() []Rule { return rules.All() }

// Table7Rules returns the library's rules from the paper's Table 7: 34 of
// its 35, all but the unproved rule 25.
func Table7Rules() []Rule { return rules.Table7() }

// Optimizer rewrites queries with a rule set over a schema.
//
// Concurrency contract: configure the Optimizer fully (NewOptimizer,
// EnableResultCache, EnablePlanCache) before sharing it; afterwards every
// other method — Optimize, OptimizeSQLResult, OptimizeSQLResultContext,
// OptimizeSQLResultMode, ExplainSQL, PlanSQL,
// ResultCacheStats, PlanCacheStats — is safe to call from concurrent
// goroutines. The compiled rule set and its shape index are immutable shared
// state; all per-call scratch (bindings, memo) lives in per-call
// contexts, and the optional caches are internally synchronized. The serving
// daemon enables only the result cache; EnablePlanCache and PlanCacheStats
// are called only by the benchmark's per-layer probe.
type Optimizer struct {
	rw        *rewrite.Rewriter
	cache     *rewrite.ResultCache
	planCache *rewrite.PlanCache
}

// NewOptimizer builds an optimizer. Its search ranks plans by size alone; no
// database or cost estimate takes part (EstimateCost reports one).
func NewOptimizer(rs []Rule, schema *Schema) *Optimizer {
	return &Optimizer{rw: rewrite.NewRewriter(rs, schema)}
}

// EnableResultCache turns on the normalized-query → rewrite-result LRU
// (n entries; n <= 0 picks a default). Repeated OptimizeSQLResult calls for
// the same query shape (modulo whitespace and trailing ';' — see
// sql.NormalizeQuery) then skip planning and search entirely. Call before
// sharing the Optimizer across goroutines.
func (o *Optimizer) EnableResultCache(n int) {
	o.cache = rewrite.NewResultCache(n)
}

// EnablePlanCache turns on a normalized-query → search-ready-plan LRU
// (n entries; n <= 0 picks a default) behind the result cache: a repeated
// query text whose result was evicted (or was never cacheable, e.g.
// deadline-truncated) skips sql.Parse, plan construction and ORDER-BY
// elimination and goes straight to the search. Results are byte-identical
// to a cold parse — the cached plan is exactly the search's start state.
// Call before sharing the Optimizer across goroutines.
//
// The serving daemon does not enable it (the tier never hit on a serving
// workload and kept a plan tree live per miss); its only caller is the
// benchmark's per-layer probe, and it is deleted together with PlanCacheStats,
// rewrite.PlanCache and Options.SkipOrderByElim once that probe stops
// calling it.
func (o *Optimizer) EnablePlanCache(n int) {
	o.planCache = rewrite.NewPlanCache(n)
}

// Applied describes one rewrite step.
type Applied = rewrite.Applied

// RewriteStats reports search effort for one rewrite: nodes explored, memo
// hits, index-pruned rule attempts, and whether a budget truncated the search.
type RewriteStats = rewrite.Stats

// RewriteResult is the machine-readable outcome of OptimizeSQLResult.
// CostBefore and CostAfter are the plan sizes (operator counts) before and
// after, the measure the search ranks by.
type RewriteResult struct {
	Input      string       `json:"input"`
	Output     string       `json:"output"`
	Applied    []Applied    `json:"applied"`
	CostBefore float64      `json:"cost_before"`
	CostAfter  float64      `json:"cost_after"`
	Stats      RewriteStats `json:"stats"`
	// Cached reports that the result came from the Optimizer's result cache;
	// Stats then describes the original (cached) search, not new work.
	Cached bool `json:"cached,omitempty"`
	// Mode is "cache_only" when the result was answered without a search,
	// from the result cache or as the input unchanged. Empty for a
	// full-effort rewrite.
	Mode string `json:"mode,omitempty"`
}

// RewriteMode selects whether a rewrite may search. The serving layer's
// degradation ladder switches between the two under overload; library callers
// can use ModeCacheOnly directly to bound a rewrite's cost to one lookup.
type RewriteMode int

const (
	// ModeFull parses, plans and searches under the default budgets.
	ModeFull RewriteMode = iota
	// ModeCacheOnly answers from the result cache or passes the query
	// through unchanged. It never parses or searches, so its cost is one
	// cache lookup — the serving floor under overload.
	ModeCacheOnly
)

// String names the mode as the serving layer reports it
// (X-WeTune-Service-Level header values).
func (m RewriteMode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeCacheOnly:
		return "cache_only"
	}
	return "unknown"
}

// Optimize rewrites a logical plan, returning the improved plan and the rule
// sequence applied (empty when no rule helps). It applies rules one step at a
// time, like the paper's §8.4 flow, and keeps the smallest plan it reaches.
func (o *Optimizer) Optimize(p Plan) (Plan, []Applied) {
	out, applied, _ := o.rw.Search(p, rewrite.Options{})
	return out, applied
}

// OptimizeSQLResult parses, plans, optimizes and renders back to SQL,
// returning the full machine-readable result: input/output SQL, applied rule
// chain, cost (plan size) before and after, and search stats. When the result cache is
// enabled (EnableResultCache) results are keyed by the query text.
func (o *Optimizer) OptimizeSQLResult(query string) (*RewriteResult, error) {
	return o.rewriteSQL(time.Time{}, query, ModeFull, nil)
}

// OptimizeSQLResultContext is OptimizeSQLResult honoring the context's
// deadline: the search checks the deadline before every step and, past it,
// returns the best plan found so far with Stats.Truncated set and
// Stats.TruncatedBy = "deadline" (never an error — a timed-out rewrite
// degrades to the input or a partial improvement, both of which are correct
// SQL). With no deadline, or one that never fires mid-search, the result is
// byte-identical to OptimizeSQLResult: the step budget is the same. Deadline-truncated results are never stored in the result cache
// — a slow client's partial answer must not be replayed to a patient one.
func (o *Optimizer) OptimizeSQLResultContext(ctx context.Context, query string) (*RewriteResult, error) {
	deadline, _ := ctx.Deadline()
	return o.rewriteSQL(deadline, query, ModeFull, nil)
}

// OptimizeSQLResultMode is OptimizeSQLResultContext in the given mode, with
// the deadline given as a value (the zero time is none): a caller that owns
// its clock, like the server, needs no context per call. Both modes read the
// result cache. ModeCacheOnly never parses: a result-cache miss passes the
// query through unchanged with zero-value stats, which is always correct SQL.
func (o *Optimizer) OptimizeSQLResultMode(deadline time.Time, query string, mode RewriteMode) (*RewriteResult, error) {
	return o.rewriteSQL(deadline, query, mode, nil)
}

// rewriteSQL is the one path from query text to rewritten SQL; every
// OptimizeSQLResult* method and ExplainSQL is a call into it. Its stages, in
// order:
//
//  1. normalize — the cache key (skipped when no cache tier will be used)
//  2. result-cache probe — a hit is the answer; ModeCacheOnly stops here
//  3. parse + plan build and ORDER-BY elimination (§7); with EnablePlanCache
//     (a library option the serving daemon never sets) a plan-cache get
//     comes first and a put after
//  4. search — §6 rule matching under the default §8.4 budgets of
//     rewrite.Options and the deadline (the zero time is none)
//  5. print — the chosen plan back to SQL
//  6. result-cache put — results the deadline did not truncate only
//
// A non-nil prov asks for the search's derivation record (ExplainSQL). An
// explanation must describe a real search, not a memo, so it skips stages 2
// and 6; everything else — budgets, plan cache, deadline — is the same, which
// is what keeps an explanation identical to the rewrite it explains.
func (o *Optimizer) rewriteSQL(deadline time.Time, query string, mode RewriteMode, prov *Provenance) (*RewriteResult, error) {
	resultCache := o.cache
	if prov != nil {
		resultCache = nil
	}
	// Both cache tiers key on the normalized text, so "SELECT 1" and
	// "select  1 ;"-style formatting variants share entries... but only the
	// whitespace/terminator kind of variant — normalization never rewrites
	// tokens (see sql.NormalizeQuery).
	key := query
	if resultCache != nil || o.planCache != nil {
		key = sql.NormalizeQuery(query)
	}

	// found is the outcome in the form the result cache stores it: a hit, the
	// pass-through of ModeCacheOnly, or what the search below produces.
	var found rewrite.CachedResult
	cached := false
	if resultCache != nil {
		found, cached = resultCache.Get(key)
	}
	switch {
	case cached:
	case mode == ModeCacheOnly:
		found.SQL = query
	default:
		// The search's start state is the post-elimination plan, which is
		// also what the plan cache holds: elimination mutates ORDER-BY clauses
		// inside predicate subqueries, so it must run exactly once, before
		// the plan is shared.
		var start plan.Node
		if o.planCache != nil {
			start, _ = o.planCache.Get(key)
		}
		if start == nil {
			built, err := plan.BuildSQL(query, o.rw.Schema)
			if err != nil {
				return nil, err
			}
			start = rewrite.EliminateOrderBy(built)
			if o.planCache != nil {
				o.planCache.Put(key, start)
			}
		}
		out, applied, stats := o.rw.Search(start, rewrite.Options{
			Deadline: deadline, SkipOrderByElim: true, Provenance: prov,
		})
		found = rewrite.CachedResult{
			SQL:        plan.ToSQLString(out),
			Applied:    applied,
			Stats:      stats,
			CostBefore: stats.InitialCost,
			CostAfter:  stats.FinalCost,
		}
		if resultCache != nil && stats.TruncatedBy != "deadline" {
			resultCache.Put(key, found)
		}
	}

	res := &RewriteResult{
		Input:      query,
		Output:     found.SQL,
		Applied:    found.Applied,
		CostBefore: found.CostBefore,
		CostAfter:  found.CostAfter,
		Stats:      found.Stats,
		Cached:     cached,
	}
	if mode == ModeCacheOnly {
		res.Mode = mode.String()
	}
	return res, nil
}

// Provenance is the derivation record of one rewrite search: the chain of
// steps with the plan size on each side, every candidate the search did not
// step to with the reason, and the per-rule why-not funnel.
type Provenance = rewrite.Provenance

// ExplainResult is OptimizeSQLResult's outcome plus the derivation
// provenance behind it.
type ExplainResult struct {
	RewriteResult
	Provenance *Provenance `json:"provenance"`
}

// ExplainSQL parses, plans and optimizes like OptimizeSQLResultContext, but
// records the full derivation: why each applied rule was chosen (per-step
// node path and size delta), what the search rejected and why, and how far
// every other rule got before a gate stopped it. The embedded RewriteResult
// comes from the same path with the same budgets, so Output, Applied and the
// costs are identical to what OptimizeSQLResult would return for the same
// query. ExplainSQL never reads or populates the result cache (an
// explanation must describe a real search, not a memo).
func (o *Optimizer) ExplainSQL(ctx context.Context, query string) (*ExplainResult, error) {
	prov := new(Provenance)
	deadline, _ := ctx.Deadline()
	res, err := o.rewriteSQL(deadline, query, ModeFull, prov)
	if err != nil {
		return nil, err
	}
	return &ExplainResult{RewriteResult: *res, Provenance: prov}, nil
}

// CacheStats reports result-cache traffic: hits, misses, hit rate, entries.
type CacheStats = rewrite.CacheStats

// ResultCacheStats reports the Optimizer's result-cache traffic (hits,
// misses, hit rate, entries). ok is false when EnableResultCache was never
// called.
func (o *Optimizer) ResultCacheStats() (stats CacheStats, ok bool) {
	if o.cache == nil {
		return CacheStats{}, false
	}
	return o.cache.Stats(), true
}

// PlanCacheStats reports the Optimizer's plan-cache traffic. ok is false when
// EnablePlanCache was never called. Like EnablePlanCache, it remains only for
// the benchmark's per-layer probe and goes when that probe stops calling it.
func (o *Optimizer) PlanCacheStats() (stats CacheStats, ok bool) {
	if o.planCache == nil {
		return CacheStats{}, false
	}
	return o.planCache.Stats(), true
}

// PlanSQL parses and lowers a query against the optimizer's schema.
func (o *Optimizer) PlanSQL(query string) (Plan, error) {
	return plan.BuildSQL(query, o.rw.Schema)
}

// PlanToSQL renders a plan back to SQL text.
func PlanToSQL(p Plan) string { return plan.ToSQLString(p) }

// VerifyOutcome is the verifier verdict for a rule.
type VerifyOutcome int

// Verifier verdicts.
const (
	// Verified: proven correct.
	Verified VerifyOutcome = iota
	// Rejected: not proven (conservatively treated as incorrect).
	Rejected
	// Refuted: executing the rule on a populated database gave different
	// results on its two sides.
	Refuted
	// Unsupported: operators outside the built-in verifier's scope.
	Unsupported
)

func (o VerifyOutcome) String() string {
	switch o {
	case Verified:
		return "verified"
	case Rejected:
		return "rejected"
	case Refuted:
		return "refuted"
	case Unsupported:
		return "unsupported"
	}
	return "?"
}

// defaultCheckSeed seeds the engine's data when VerifyRule refutes a rule and
// when Discover cross-checks one.
const defaultCheckSeed = 1

// VerifyRule checks a rule with the built-in verifier (§5.1): symbol
// unification, U-expression normalization under constraint lemmas, then a
// FOL translation decided by the bundled mini SMT solver. A rule it does not
// prove is Refuted only when internal/difftest's CheckRule finds its two sides
// returning different bags on a populated database; otherwise it is Rejected.
func VerifyRule(r Rule) VerifyOutcome {
	rep := verify.Verify(r.Src, r.Dest, r.Constraints)
	switch rep.Outcome {
	case verify.Verified:
		return Verified
	case verify.Unsupported:
		return Unsupported
	}
	if res, _ := difftest.CheckRule(r.Src, r.Dest, r.Constraints, defaultCheckSeed); res == difftest.Mismatched {
		return Refuted
	}
	return Rejected
}

// VerifySPES checks a rule with the SPES-style verifier (§5.2). The reason
// explains failures (e.g. integrity-constraint dependence).
func VerifySPES(r Rule) (ok bool, reason string) {
	return spes.VerifyRule(r.Src, r.Dest, r.Constraints)
}

// VerifySQLPair proves the equivalence of two concrete queries over a schema
// with the built-in verifier (by abstracting the pair into a rule).
func VerifySQLPair(q1, q2 string, schema *Schema) (VerifyOutcome, error) {
	p1, err := plan.BuildSQL(q1, schema)
	if err != nil {
		return Rejected, err
	}
	p2, err := plan.BuildSQL(q2, schema)
	if err != nil {
		return Rejected, err
	}
	rep := verify.VerifyPlanPair(p1, p2, schema)
	switch rep.Outcome {
	case verify.Verified:
		return Verified, nil
	case verify.Unsupported:
		return Unsupported, nil
	}
	return Rejected, nil
}

// DiscoveryOptions configures rule discovery.
type DiscoveryOptions struct {
	// MaxTemplateSize bounds template operators (default 2). Size 3 with the
	// algebraic prover is 17,425 prover calls and 870 rules in about 5–7 s on
	// 2 vCPUs; the paper's size-4 run took 36 hours on 120 cores and is not
	// measured here.
	MaxTemplateSize int
	// Workers for parallel search (0 = GOMAXPROCS).
	Workers int
	// Context cancels discovery early (nil = background); give it a timeout
	// to bound the wall-clock time. Its end interrupts the proof in flight,
	// not just the next pair boundary, and the run returns the rules found
	// so far with partial stats.
	Context context.Context
	// Progress, when set, receives a per-stage stats snapshot at every stage
	// boundary and periodically during the search. Calls are serialized.
	Progress func(DiscoveryProgress)
	// TraceSlow, when > 0, records a timing-span tree per template pair
	// (pair → prove → verify → smt.solve) and hands the rendered tree of
	// every pair slower than the threshold to SlowTrace. Zero disables span
	// recording, which is the default for production sweeps.
	TraceSlow time.Duration
	// SlowTrace receives the rendered span tree of each slow pair (see
	// TraceSlow). Calls are serialized.
	SlowTrace func(tree string)
	// UseSMT verifies candidates with the full algebraic+SMT prover instead
	// of the algebraic-only fast path: slower per pair, proves more rules,
	// and exercises the solver so smt_* metrics populate. SMT-backed verdicts
	// live in their own namespace of the shared proof cache, so a cache file
	// serves both modes without one prover's verdicts masking the other's.
	UseSMT bool
	// CrossCheck differentially tests every verifier-accepted rule against
	// the in-memory engine (internal/difftest): the rule's templates are
	// concretized, the resulting schema populated under NULL-light and
	// NULL-heavy profiles, and both plans executed and compared under bag
	// semantics. Rules the oracle refutes are dropped and counted in
	// Stats.RulesCrossCheckedOut — a disagreement means either the verifier
	// or the engine is wrong, so it is worth surfacing, never silently
	// emitting.
	CrossCheck bool
}

// DiscoveryStats reports per-stage discovery effort (templates, pairs,
// prover calls, cache hits, elapsed).
type DiscoveryStats = pipeline.Stats

// DiscoveryProgress is one progress snapshot: the stage name plus the
// counters so far.
type DiscoveryProgress = pipeline.Snapshot

// DiscoveryResult reports a discovery run.
type DiscoveryResult struct {
	Rules       []DiscoveredRule
	Templates   int
	PairsTried  int64
	ProverCalls int64
	// CacheHits counts prover invocations answered by the shared proof
	// cache; repeated runs over the same template set re-prove nothing.
	CacheHits int64
	// Stats holds the full per-stage breakdown.
	Stats DiscoveryStats
}

// DiscoveredRule is a machine-found rewrite rule.
type DiscoveredRule struct {
	Source      string
	Destination string
	Constraints string
	AsRule      Rule
}

// discoveredRuleBase returns the first rule number free for discovered rules:
// above 999 and above every builtin rule number, so discovered rules never
// collide with rules.All().
func discoveredRuleBase() int {
	base := 1000
	for _, r := range rules.All() {
		if r.No >= base {
			base = r.No + 1
		}
	}
	return base
}

// Discover runs the paper's rule generation pipeline (§4) — template
// enumeration, pairing, constraint enumeration and relaxation, each candidate
// checked by the built-in verifier — on the staged internal/pipeline engine.
// Verdicts are memoized in the process-wide proof cache, so repeated runs
// over the same template set reuse them instead of re-invoking the verifier.
func Discover(opts DiscoveryOptions) *DiscoveryResult {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	popts := pipeline.Options{
		MaxTemplateSize: opts.MaxTemplateSize,
		PairProver:      pipeline.AlgebraicPairProver,
		Workers:         opts.Workers,
		Cache:           pipeline.Shared(),
		Progress:        opts.Progress,
		TraceSlow:       opts.TraceSlow,
	}
	if opts.UseSMT {
		popts.PairProver = pipeline.DefaultPairProver
		popts.CacheNamespace = "smt:"
	}
	if opts.SlowTrace != nil {
		slow := opts.SlowTrace
		popts.SlowPair = func(sp *obs.Span) { slow(sp.Tree()) }
	}
	if opts.CrossCheck {
		popts.CrossCheck = func(cctx context.Context, r pipeline.Rule) bool {
			if cctx.Err() != nil {
				return true // cancelled runs keep what the verifier accepted
			}
			res, _ := difftest.CheckRule(r.Src, r.Dest, r.Constraints, defaultCheckSeed)
			return res != difftest.Mismatched
		}
	}
	res := pipeline.Run(ctx, popts)
	out := &DiscoveryResult{
		Templates:   res.Stats.Templates,
		PairsTried:  res.Stats.PairsTried,
		ProverCalls: res.Stats.ProverCalls,
		CacheHits:   res.Stats.CacheHits,
		Stats:       res.Stats,
	}
	base := discoveredRuleBase()
	for i, r := range res.Rules {
		out.Rules = append(out.Rules, DiscoveredRule{
			Source:      r.Src.String(),
			Destination: r.Dest.String(),
			Constraints: r.Constraints.String(),
			AsRule: Rule{
				No:          base + i,
				Name:        fmt.Sprintf("discovered-%d", i),
				Src:         r.Src,
				Dest:        r.Dest,
				Constraints: r.Constraints,
				Verifier:    "W",
			},
		})
	}
	return out
}

// NewDatabase creates an empty in-memory database over a schema, with hash
// indexes on primary and unique keys.
func NewDatabase(schema *Schema) *DB { return engine.NewDB(schema) }

// PopulateOptions configures synthetic data generation.
type PopulateOptions = datagen.Options

// Distribution constants for Populate.
const (
	Uniform = datagen.Uniform
	Zipfian = datagen.Zipfian
)

// Populate fills every table with deterministic synthetic rows respecting
// the schema's integrity constraints (§8.1's workload generator).
func Populate(db *DB, opts PopulateOptions) error { return datagen.Populate(db, opts) }

// Execute runs a plan and returns result rows. A plan that is not well
// formed (plan.Check: a dangling column, unequal union arms, ...) is an error.
func Execute(db *DB, p Plan, params ...Value) ([]Row, error) {
	res, err := db.Execute(p, params)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// EstimateCost returns the engine's cost estimate for a plan (the stand-in
// for EXPLAIN in §6). The rewrite search does not read it: it ranks by size.
func EstimateCost(db *DB, p Plan) float64 { return db.EstimateCost(p) }

// ReduceRules removes rules made redundant by compositions of the others
// (§7), using each rule's own probing query.
func ReduceRules(rs []Rule) (kept, removed []Rule) { return rewrite.Reduce(rs) }

// internal guard: the constraint package must remain reachable for users
// building custom rules via the re-exported types.
var _ = constraint.RelEq
