package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// Workload names, as BENCHMARK.json declares them.
const (
	wlRewriteCold = "rewrite_cold"
	wlServeHot    = "serve_hot"
	wlServeMiss   = "serve_miss"
	wlDiscover    = "discover_size2"
)

var workloadNames = []string{wlRewriteCold, wlServeHot, wlServeMiss, wlDiscover}

// defaultSeconds is BENCHMARK.json's run_seconds: how long one timed phase
// measures when -seconds is not given.
const defaultSeconds = 10

// unitOf names the unit of every metric the benchmark prints. The first block
// is the end-to-end set (tracing off), the rest the per-layer set (traced
// run). TestSpecMatchesBenchmarkJSON keeps it equal to BENCHMARK.json.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"op_p50_us":       "us",
	"op_p99_us":       "us",
	"cpu_us_per_op":   "us",
	"allocs_per_op":   "count",
	"alloc_kb_per_op": "KiB",
	"cost_ratio":      "ratio",
	"rules_found":     "count",
}

var perLayerUnits = map[string]string{
	"sql.normalize_ns": "ns", "sql.parse_ns": "ns", "sql.parse_allocs": "count",
	"plan.build_ns": "ns", "plan.build_allocs": "count", "plan.nodes": "count",
	"plan.tosql_ns": "ns", "plan.fingerprint_ns": "ns", "plan.fingerprint_allocs": "count",
	"rewrite.orderby_elim_ns": "ns", "rewrite.search_ns": "ns", "rewrite.search_allocs": "count",
	"rewrite.candidates_ns": "ns", "rewrite.nodes_explored": "count", "rewrite.rule_attempts": "count",
	"rewrite.rule_match_ratio": "ratio", "rewrite.index_pruned": "count", "rewrite.shape_pruned": "count",
	"rewrite.memo_hits": "count", "rewrite.rewritten_share": "share", "rewrite.truncated_share": "share",
	"rewrite.result_cache_get_ns": "ns", "rewrite.result_cache_put_ns": "ns",
	"rewrite.result_cache_hit_ratio": "ratio", "rewrite.plan_cache_hit_ratio": "ratio",
	"wetune.optimize_ns": "ns", "wetune.glue_ns": "ns",
	"server.handler_us": "us", "server.transport_us": "us", "server.self_us": "us",
	"server.response_bytes": "bytes", "server.rejected_share": "share", "server.timeout_share": "share",
	"server.degraded_share": "share", "server.open_p50_us": "us", "server.open_p99_us": "us",
	"driver.late_p99_us": "us", "driver.trace_overhead_ratio": "ratio",
	"template.enumerate_ms": "ms", "template.count": "count",
	"constraint.enumerate_us": "us", "constraint.cstar_size": "count", "constraint.closure_us": "us",
	"pipeline.pairs_generated": "count", "pipeline.pairs_tried": "count", "pipeline.pairs_skipped": "count",
	"pipeline.prover_calls": "count", "pipeline.relax_self_ms": "ms", "pipeline.pair_ms_p50": "ms",
	"pipeline.pair_ms_max": "ms", "pipeline.worker_busy_share": "share",
	"pipeline.proof_cache_hit_ratio": "ratio", "pipeline.rules_per_kcall": "count",
	"verify.call_us_p50": "us", "verify.call_us_p99": "us", "verify.paircontext_build_us": "us",
	"verify.algebraic_share": "share", "verify.smt_share": "share", "verify.rejected_share": "share",
	"uexpr.translate_us": "us", "uexpr.normalize_us": "us", "fol.translate_us": "us",
	"smt.solve_us_p50": "us", "smt.solve_us_p99": "us", "smt.decisions_per_call": "count",
	"smt.unknown_share": "share", "intern.hit_ratio": "ratio", "intern.nodes_per_call": "count",
	"spes.rule_ms_p50": "ms", "spes.proved_share": "share",
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is the named set one run reports. set panics on a name the spec
// does not declare: that is a bug in the benchmark, never an input condition.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit, ok = perLayerUnits[name]
	}
	if !ok {
		panic("benchmark: metric " + name + " is not declared in spec.go")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// newPerLayer returns the per-layer set with every metric present at 0: a
// layer a workload never enters reports 0, which is the prediction "this
// workload must not move when that layer changes" made checkable.
func newPerLayer() metrics {
	m := make(metrics, len(perLayerUnits))
	for name := range perLayerUnits {
		m.set(name, 0)
	}
	return m
}

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// result is the outcome of one workload run. The driver reads finalLine; the
// rest is what a person or a later issue reads.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Correct   bool           `json:"correct"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	Metrics   metrics        `json:"metrics"`
	Info      map[string]any `json:"info"`
	Failures  []string       `json:"failures,omitempty"`
}

// finalLine is the one-object summary the driver parses from the last line
// of standard output.
func (r *result) finalLine() string {
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // only floats and strings: cannot fail unless a value is NaN/Inf, which is a benchmark bug
	}
	return string(b)
}

// print writes the run as text: every metric by name with value and unit,
// then the supporting counts.
func (r *result) print(w *os.File) {
	mode := "timed"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %gs): attempted %d, failed %d, correct %v\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	for _, name := range r.Metrics.names() {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  info %-29s %v\n", k, r.Info[k])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// failureLog counts failed operations and keeps the first few descriptions
// (offending SQL or rule) for the report. Safe for concurrent use.
type failureLog struct {
	mu    sync.Mutex
	n     int64
	first []string
}

const failuresKept = 10

func (f *failureLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < failuresKept {
		f.first = append(f.first, strings.ReplaceAll(fmt.Sprintf(format, args...), "\n", " "))
	}
}

func (f *failureLog) count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}
