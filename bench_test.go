package wetune

// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation (§8), per the experiment index in DESIGN.md. Each benchmark
// regenerates the artifact via internal/bench and logs the rows the paper
// reports; b.N iterations repeat the core computation for timing.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The absolute numbers are engine-scale rather than SQL-Server-scale; the
// shapes (who wins, by what factor) are the reproduction target — see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.

import (
	"context"
	"testing"

	"wetune/internal/bench"
	"wetune/internal/pipeline"
	"wetune/internal/template"
)

func logOnce(b *testing.B, r *bench.Report) {
	b.Helper()
	b.Log("\n" + r.String())
}

// BenchmarkTable1_MotivatingQueries — E1 (Table 1).
func BenchmarkTable1_MotivatingQueries(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.Table1()
	}
	logOnce(b, r)
}

// BenchmarkStudy50Issues — E2 (§2.2 study).
func BenchmarkStudy50Issues(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.Study50()
	}
	logOnce(b, r)
}

// BenchmarkTable7_RuleDiscovery — E3 (§8.2 rule generation).
func BenchmarkTable7_RuleDiscovery(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.RuleDiscovery(2)
	}
	logOnce(b, r)
}

// BenchmarkTable7_RuleVerification — E4 (Table 7 verifier column).
func BenchmarkTable7_RuleVerification(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.Table7Verification()
	}
	logOnce(b, r)
}

// BenchmarkAppQueryRewrites — E5 (§8.3 application corpus, full 8,518-query
// scale: 426 per app).
func BenchmarkAppQueryRewrites(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.AppRewrites(426)
	}
	logOnce(b, r)
}

// BenchmarkCalciteSuiteRewrites — E6 (§8.3 Calcite suite, 464 queries).
func BenchmarkCalciteSuiteRewrites(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.CalciteRewrites()
	}
	logOnce(b, r)
}

// BenchmarkWorkloadsAD_Latency — E7 (§8.3 latency matrix; scale 20 shrinks
// the 1M-row settings to 50K for laptop runs).
func BenchmarkWorkloadsAD_Latency(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.WorkloadsLatency(20, 60, 21)
	}
	logOnce(b, r)
}

// BenchmarkCaseStudy — E8 (§8.4 case study on Table 1 q3).
func BenchmarkCaseStudy(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.CaseStudy(50000)
	}
	logOnce(b, r)
}

// BenchmarkVerifierComparison — E9 (§8.5 built-in vs SPES).
func BenchmarkVerifierComparison(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.VerifierComparison(2)
	}
	logOnce(b, r)
}

// BenchmarkTimeoutStudy — E10 (§5.1.2 correct vs mutated-incorrect rules).
func BenchmarkTimeoutStudy(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.TimeoutStudy()
	}
	logOnce(b, r)
}

// BenchmarkTable6_Capabilities — E11 (Table 6 feature matrix).
func BenchmarkTable6_Capabilities(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.Table6Capabilities()
	}
	logOnce(b, r)
}

// BenchmarkAblationConstraintPruning — DESIGN.md ablation 1.
func BenchmarkAblationConstraintPruning(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.AblationConstraintPruning()
	}
	logOnce(b, r)
}

// BenchmarkAblationVerifierPaths — DESIGN.md ablation 2.
func BenchmarkAblationVerifierPaths(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.AblationVerifierPaths()
	}
	logOnce(b, r)
}

// BenchmarkRuleReduction — §7 redundant-rule elimination.
func BenchmarkRuleReduction(b *testing.B) {
	var r *bench.Report
	for i := 0; i < b.N; i++ {
		r = bench.RuleReduction()
	}
	logOnce(b, r)
}

// Discovery-throughput benchmarks: the staged pipeline at MaxTemplateSize=2,
// reported as pairs/sec and prover-calls/sec. The cold variant proves every
// constraint set from scratch; the warm variant answers from a pre-populated
// proof cache, isolating the cache's effect on throughput.

func benchDiscovery(b *testing.B, warm bool) {
	b.Helper()
	templates := template.Enumerate(template.EnumOptions{MaxSize: 2})
	seed := pipeline.NewProofCache()
	if warm {
		pipeline.Run(context.Background(), pipeline.Options{
			Templates: templates, PairProver: pipeline.AlgebraicPairProver, Cache: seed,
		})
	}
	var pairs, calls int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := seed
		if !warm {
			cache = pipeline.NewProofCache() // fresh per iteration: every proof is a miss
		}
		res := pipeline.Run(context.Background(), pipeline.Options{
			Templates: templates, PairProver: pipeline.AlgebraicPairProver, Cache: cache,
		})
		pairs += res.Stats.PairsTried
		calls += res.Stats.ProverCalls
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(pairs)/sec, "pairs/s")
		b.ReportMetric(float64(calls)/sec, "prover-calls/s")
	}
}

// BenchmarkDiscoveryThroughputCold — staged pipeline, empty proof cache.
func BenchmarkDiscoveryThroughputCold(b *testing.B) { benchDiscovery(b, false) }

// BenchmarkDiscoveryThroughputWarm — staged pipeline, fully warmed proof cache.
func BenchmarkDiscoveryThroughputWarm(b *testing.B) { benchDiscovery(b, true) }
