package pipeline

import (
	"context"
	"strings"
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

// TestDeterministicAcrossWorkersAndCaches: worker count and cache temperature
// (a solve memo that earlier runs filled) change neither the discovered rule
// set nor the prover calls. No run writes a flight-recorder event: Stats and
// the pipeline_* counters are the record of prover calls and memo hits.
func TestDeterministicAcrossWorkersAndCaches(t *testing.T) {
	opts := Options{Templates: size1Templates(), PairProver: DefaultPairProver, Cache: NewProofCache(), Workers: 1}
	before := journal.Default().Written()
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
		if got.Stats.ProverCalls != base.Stats.ProverCalls || got.Stats.CacheHits != base.Stats.CacheHits {
			t.Errorf("workers=%d, warm: %d prover calls, %d memo hits; cold made %d and %d", workers,
				got.Stats.ProverCalls, got.Stats.CacheHits, base.Stats.ProverCalls, base.Stats.CacheHits)
		}
	}
	if n := journal.Default().Written() - before; n != 0 {
		t.Errorf("four size-1 runs wrote %d journal events, want 0", n)
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
			t.Errorf("workers=%d: %d prover calls, %d memo hits; workers=1 made %d and %d", workers,
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

// TestMetricsPopulatedAfterRun: a small run must leave non-empty stage
// histograms, pair counters and memo hit/miss counts in the registry it was
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
	if c := snap.Counters["pipeline_cache_misses"]; c != res.Stats.ProverCalls || c == 0 {
		t.Errorf("pipeline_cache_misses = %d, want the run's %d prover calls", c, res.Stats.ProverCalls)
	}
	if c := snap.Counters["pipeline_cache_hits"]; c != res.Stats.CacheHits {
		t.Errorf("pipeline_cache_hits = %d, want the run's %d memo hits", c, res.Stats.CacheHits)
	}
	if d := snap.Gauges["pipeline_queue_depth"]; d != 0 {
		t.Errorf("queue depth gauge = %d after the run drained, want 0", d)
	}
	if res.Stats.CacheMisses != res.Stats.ProverCalls {
		t.Errorf("memo misses %d, prover calls %d: want them equal", res.Stats.CacheMisses, res.Stats.ProverCalls)
	}
	if r := res.Stats.CacheHitRate(); r < 0 || r > 1 {
		t.Errorf("hit rate %v out of range", r)
	}
}
