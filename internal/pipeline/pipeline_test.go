package pipeline

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/template"
)

func rsym(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
func asym(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
func psym(id int) template.Sym { return template.Sym{Kind: template.KPred, ID: id} }

func size1Templates() []*template.Node {
	return template.Enumerate(template.EnumOptions{MaxSize: 1})
}

// fixedProver hands every template pair the same stub prover.
func fixedProver(p Prover) PairProverFactory {
	return func(_, _ *template.Node) Prover { return p }
}

func ruleKeys(rules []Rule) []string {
	keys := make([]string, len(rules))
	for i, r := range rules {
		keys[i] = r.Src.String() + "|" + r.Dest.String() + "|" + r.Constraints.Key()
	}
	return keys
}

// TestCancelledContextReturnsPromptly: a pipeline run with an
// already-cancelled context returns promptly with partial stats and no rules.
func TestCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res := Run(ctx, Options{Templates: size1Templates(), PairProver: AlgebraicPairProver})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
	if len(res.Rules) != 0 {
		t.Fatalf("cancelled run found %d rules", len(res.Rules))
	}
	if res.Stats.Templates == 0 {
		t.Error("partial stats should still report the template count")
	}
	if res.Stats.PairsTried != 0 {
		t.Errorf("no pair should be tried under a dead context, got %d", res.Stats.PairsTried)
	}
}

// TestDeadlineInterruptsInFlightProof: with a 50ms deadline the pipeline
// returns within 200ms even when a proof is in flight — the context reaches
// into the prover rather than waiting for the pair boundary.
func TestDeadlineInterruptsInFlightProof(t *testing.T) {
	slow := func(ctx context.Context, src, dest *template.Node, cs *constraint.Set) bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(10 * time.Second):
			return true
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := Run(ctx, Options{Templates: size1Templates(), PairProver: fixedProver(slow), Workers: 2})
	elapsed := time.Since(start)
	if elapsed > 200*time.Millisecond {
		t.Fatalf("deadline overrun: run took %v with a 50ms budget", elapsed)
	}
	if res.Stats.ProverCalls == 0 {
		t.Error("a proof should have been in flight when the deadline hit")
	}
}

// TestSMTProofInterruptedByContext: the context reaches the mini SMT solver's
// DPLL loop through the default prover, so even the heavyweight path obeys a
// short deadline.
func TestSMTProofInterruptedByContext(t *testing.T) {
	src := template.Dedup(template.Proj(asym(0), template.Input(rsym(0))))
	dest := template.Proj(asym(1), template.Input(rsym(1)))
	dest = RenameApart(src, dest)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	RunPair(ctx, src, dest, Options{PairProver: DefaultPairProver})
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("SMT-backed pair search ignored the deadline: %v", elapsed)
	}
}

// TestWarmCacheSameRulesFewerProverCalls: a second run over the same template
// set reports cache hits and discovers the identical rule set with fewer
// prover invocations. Neither run writes a flight-recorder event: Stats and
// the pipeline_* counters are the record of prover calls and cache lookups.
func TestWarmCacheSameRulesFewerProverCalls(t *testing.T) {
	templates := template.Enumerate(template.EnumOptions{MaxSize: 2})
	cache := NewProofCache()
	before := journal.Default().Written()
	cold := Run(context.Background(), Options{Templates: templates, PairProver: AlgebraicPairProver, Cache: cache})
	warm := Run(context.Background(), Options{Templates: templates, PairProver: AlgebraicPairProver, Cache: cache})
	if n := journal.Default().Written() - before; n != 0 {
		t.Errorf("a cold and a warm size-2 run wrote %d journal events, want 0", n)
	}

	if warm.Stats.CacheHits == 0 {
		t.Fatal("warm run reported no cache hits")
	}
	if warm.Stats.ProverCalls >= cold.Stats.ProverCalls {
		t.Fatalf("warm run should call the prover less: cold=%d warm=%d",
			cold.Stats.ProverCalls, warm.Stats.ProverCalls)
	}
	ck, wk := ruleKeys(cold.Rules), ruleKeys(warm.Rules)
	if len(ck) == 0 {
		t.Fatal("cold run found no rules")
	}
	if len(ck) != len(wk) {
		t.Fatalf("rule counts differ: cold=%d warm=%d", len(ck), len(wk))
	}
	for i := range ck {
		if ck[i] != wk[i] {
			t.Fatalf("rule %d differs between cold and warm runs:\n  %s\n  %s", i, ck[i], wk[i])
		}
	}
	t.Logf("cold: %d prover calls; warm: %d prover calls, %d cache hits",
		cold.Stats.ProverCalls, warm.Stats.ProverCalls, warm.Stats.CacheHits)
}

// TestDeterministicAcrossWorkersAndCaches: worker count and cache temperature
// must not change the discovered rule set.
func TestDeterministicAcrossWorkersAndCaches(t *testing.T) {
	opts := Options{Templates: size1Templates(), PairProver: AlgebraicPairProver, Workers: 1}
	base := Run(context.Background(), opts)
	for _, workers := range []int{2, 4, 8} {
		opts.Workers = workers
		got := Run(context.Background(), opts)
		bk, gk := ruleKeys(base.Rules), ruleKeys(got.Rules)
		if len(bk) != len(gk) {
			t.Fatalf("workers=%d: rule counts differ: %d vs %d", workers, len(bk), len(gk))
		}
		for i := range bk {
			if bk[i] != gk[i] {
				t.Fatalf("workers=%d: rule %d differs", workers, i)
			}
		}
	}
}

// TestDeterministicAcrossWorkersWithSMTMemo: with the SMT-backed prover, the
// run's memo answers repeated goals on whichever worker poses them second,
// and worker count still changes neither the rules nor the call counts.
func TestDeterministicAcrossWorkersWithSMTMemo(t *testing.T) {
	opts := Options{Templates: template.Enumerate(template.EnumOptions{MaxSize: 2})[:10], PairProver: DefaultPairProver}
	memoHits := obs.Default().Counter("smt_memo_hits")
	var base *Result
	for _, workers := range []int{1, 2, 4} {
		opts.Workers = workers
		before := memoHits.Value()
		got := Run(context.Background(), opts)
		if memoHits.Value() == before {
			t.Errorf("workers=%d: no SMT goal was answered from the memo", workers)
		}
		if base == nil {
			base = got
			continue
		}
		if strings.Join(ruleStrings(got.Rules), "\n") != strings.Join(ruleStrings(base.Rules), "\n") {
			t.Errorf("workers=%d: rules differ from workers=1", workers)
		}
		if got.Stats.ProverCalls != base.Stats.ProverCalls || got.Stats.CacheHits != base.Stats.CacheHits {
			t.Errorf("workers=%d: %d prover calls, %d cache hits; workers=1 made %d and %d", workers,
				got.Stats.ProverCalls, got.Stats.CacheHits, base.Stats.ProverCalls, base.Stats.CacheHits)
		}
	}
}

func ruleStrings(rules []Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.String()
	}
	return out
}

// TestProgressStages: progress snapshots arrive, start at the template stage,
// and end with "done" carrying the final counters.
func TestProgressStages(t *testing.T) {
	var snaps []Snapshot
	res := Run(context.Background(), Options{
		Templates:     size1Templates(),
		PairProver:    AlgebraicPairProver,
		Progress:      func(s Snapshot) { snaps = append(snaps, s) },
		progressEvery: 1,
	})
	if len(snaps) < 4 {
		t.Fatalf("expected stage + per-pair snapshots, got %d", len(snaps))
	}
	if snaps[0].Stage != "templates" {
		t.Errorf("first stage = %q", snaps[0].Stage)
	}
	last := snaps[len(snaps)-1]
	if last.Stage != "done" {
		t.Errorf("last stage = %q", last.Stage)
	}
	if last.Stats.PairsTried != res.Stats.PairsTried {
		t.Errorf("final snapshot pairs=%d, result pairs=%d", last.Stats.PairsTried, res.Stats.PairsTried)
	}
}

// TestBudgetChargesCacheHits: cache hits consume the per-pair prover budget
// exactly like real calls, so warm and cold searches share one trajectory.
func TestBudgetChargesCacheHits(t *testing.T) {
	src := template.Sel(psym(0), asym(0), template.Sel(psym(1), asym(1), template.Input(rsym(0))))
	dest := RenameApart(src, template.Sel(psym(2), asym(2), template.Input(rsym(1))))
	cache := NewProofCache()
	opts := Options{PairProver: AlgebraicPairProver, Cache: cache, maxProverCallsPerPair: 40}
	cold, coldStats := RunPair(context.Background(), src, dest, opts)
	warm, warmStats := RunPair(context.Background(), src, dest, opts)
	ck, wk := ruleKeys(cold), ruleKeys(warm)
	if len(ck) != len(wk) {
		t.Fatalf("budget-limited warm run diverged: cold=%d warm=%d rules", len(ck), len(wk))
	}
	for i := range ck {
		if ck[i] != wk[i] {
			t.Fatalf("rule %d differs under budget with warm cache", i)
		}
	}
	if warmStats.CacheHits == 0 || warmStats.ProverCalls >= coldStats.ProverCalls {
		t.Fatalf("warm run: calls=%d hits=%d (cold calls=%d)",
			warmStats.ProverCalls, warmStats.CacheHits, coldStats.ProverCalls)
	}
}

// TestCancelledVerdictsNotCached: verdicts produced under a cancelled context
// must not poison the cache for later runs.
func TestCancelledVerdictsNotCached(t *testing.T) {
	var calls atomic.Int64
	blocking := func(ctx context.Context, src, dest *template.Node, cs *constraint.Set) bool {
		calls.Add(1)
		<-ctx.Done()
		return false
	}
	cache := NewProofCache()
	templates := size1Templates()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	Run(ctx, Options{Templates: templates, PairProver: fixedProver(blocking), Cache: cache, Workers: 2})
	if calls.Load() == 0 {
		t.Fatal("prover never ran")
	}
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d verdicts from interrupted proofs", cache.Len())
	}
}

// TestMetricsPopulatedAfterRun: a small run must leave non-empty stage
// histograms, pair counters and cache hit/miss counts in the registry it was
// handed (the acceptance contract of the -metrics CLI flag).
func TestMetricsPopulatedAfterRun(t *testing.T) {
	reg := obs.NewRegistry()
	res := Run(context.Background(), Options{
		Templates:  size1Templates(),
		PairProver: AlgebraicPairProver,
		Metrics:    reg,
	})
	snap := reg.Snapshot()
	if h := snap.Histograms["pipeline_stage_templates_seconds"]; h.Count != 1 {
		t.Errorf("template-stage histogram count = %d, want 1", h.Count)
	}
	if h := snap.Histograms["pipeline_pair_seconds"]; h.Count == 0 {
		t.Error("pair latency histogram is empty after a run")
	}
	if h := snap.Histograms["pipeline_prover_seconds"]; h.Count == 0 {
		t.Error("prover latency histogram is empty after a run")
	}
	if snap.Counters["pipeline_pairs_tried"] == 0 {
		t.Error("pairs-tried counter is zero after a run")
	}
	if snap.Counters["pipeline_cache_misses"] == 0 {
		t.Error("a cold cache must record misses")
	}
	if d := snap.Gauges["pipeline_queue_depth"]; d != 0 {
		t.Errorf("queue depth gauge = %d after the run drained, want 0", d)
	}
	// Stats surface the same cache telemetry.
	if res.Stats.CacheMisses == 0 || res.Stats.CacheSize == 0 {
		t.Errorf("cache stats not surfaced: misses=%d size=%d",
			res.Stats.CacheMisses, res.Stats.CacheSize)
	}
	if r := res.Stats.CacheHitRate(); r < 0 || r > 1 {
		t.Errorf("hit rate %v out of range", r)
	}
}

// TestWarmRunCacheHitRate: with a warm caller-owned cache the stats must
// report a positive hit rate.
func TestWarmRunCacheHitRate(t *testing.T) {
	templates := size1Templates()
	cache := NewProofCache()
	Run(context.Background(), Options{Templates: templates, PairProver: AlgebraicPairProver, Cache: cache, Metrics: obs.NewRegistry()})
	warm := Run(context.Background(), Options{Templates: templates, PairProver: AlgebraicPairProver, Cache: cache, Metrics: obs.NewRegistry()})
	if r := warm.Stats.CacheHitRate(); r <= 0 {
		t.Errorf("warm run hit rate = %v, want > 0 (hits=%d misses=%d)",
			r, warm.Stats.CacheHits, warm.Stats.CacheMisses)
	}
	if warm.Stats.CacheSize == 0 {
		t.Error("warm run reports an empty cache")
	}
}

func TestFingerprintCanonicalizesSymbolIDs(t *testing.T) {
	// The same logical rule written with different symbol IDs.
	mk := func(r1, r2, a1, a2 int) (src, dest *template.Node, cs *constraint.Set) {
		src = template.Dedup(template.Proj(asym(a1), template.Input(rsym(r1))))
		dest = template.Proj(asym(a2), template.Input(rsym(r2)))
		cs = constraint.NewSet(
			constraint.New(constraint.RelEq, rsym(r1), rsym(r2)),
			constraint.New(constraint.AttrsEq, asym(a1), asym(a2)),
			constraint.New(constraint.Unique, rsym(r1), asym(a1)),
		)
		return
	}
	s1, d1, c1 := mk(0, 1, 0, 1)
	s2, d2, c2 := mk(7, 3, 5, 2)
	if fingerprint(s1, d1, c1) != fingerprint(s2, d2, c2) {
		t.Errorf("isomorphic rules fingerprint differently:\n  %s\n  %s",
			fingerprint(s1, d1, c1), fingerprint(s2, d2, c2))
	}
	// A genuinely different constraint set must not collide.
	c3 := constraint.NewSet(
		constraint.New(constraint.RelEq, rsym(0), rsym(1)),
		constraint.New(constraint.AttrsEq, asym(0), asym(1)),
	)
	if fingerprint(s1, d1, c1) == fingerprint(s1, d1, c3) {
		t.Error("different constraint sets share a fingerprint")
	}
}
