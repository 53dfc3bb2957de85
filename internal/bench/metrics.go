package bench

import (
	"context"
	"strings"

	"wetune/internal/obs"
	"wetune/internal/pipeline"
	"wetune/internal/template"
)

// DiscoveryMetrics runs a laptop-scale discovery sweep with full
// instrumentation and emits the observability registry as JSON, so the
// BENCH_*.json trajectories can track solver-level counters (SMT outcomes,
// DPLL effort, cache hit rates, per-stage latency quantiles) alongside the
// headline numbers. The sweep uses a private cache and a private registry:
// the emitted metrics describe exactly this run, not whatever the process did
// before.
func DiscoveryMetrics(maxSize int) *Report {
	r := NewReport("Discovery observability metrics")
	reg := obs.NewRegistry()
	res := pipeline.Run(context.Background(), pipeline.Options{
		Templates: template.Enumerate(template.EnumOptions{MaxSize: maxSize}),
		Prover:    pipeline.AlgebraicProver,
		Cache:     pipeline.NewProofCache(),
		Metrics:   reg,
	})
	r.Printf("discovery at size <= %d: %d rules, %d prover calls, cache hit rate %.2f",
		maxSize, len(res.Rules), res.Stats.ProverCalls, res.Stats.CacheHitRate())
	r.Metric("rules_found", float64(len(res.Rules)))
	r.Metric("prover_calls", float64(res.Stats.ProverCalls))
	r.Metric("cache_hit_rate", res.Stats.CacheHitRate())
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["pipeline_pair_seconds"]; ok {
		r.Metric("pair_p50_seconds", h.P50Seconds)
		r.Metric("pair_p99_seconds", h.P99Seconds)
	}
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		r.Printf("metrics export failed: %v", err)
		return r
	}
	r.Printf("metrics registry JSON:")
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		r.Printf("  %s", line)
	}
	return r
}
