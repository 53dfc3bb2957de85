package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"wetune/internal/obs"
)

// cmdReportServe renders the serving-side view of a metrics registry dump
// (the JSON written by the shared -metrics flag during a serve or loadtest
// run): request/response traffic, admission control, the result cache,
// batch fan-out, and per-endpoint latency.
func cmdReportServe(args []string) int {
	fs := newFlagSet("report serve")
	metricsFile := fs.String("metrics", "", "metrics registry JSON dump from a serve/loadtest run's -metrics flag (required)")
	asJSON := fs.Bool("json", false, "re-emit the parsed snapshot as JSON (a validity check for pipelines)")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if *metricsFile == "" {
		fmt.Fprintln(os.Stderr, "report serve: -metrics FILE is required")
		return exitUsage
	}
	data, err := os.ReadFile(*metricsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report serve:", err)
		return exitError
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		fmt.Fprintf(os.Stderr, "report serve: parse %s: %v\n", *metricsFile, err)
		return exitError
	}
	if *asJSON {
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "report serve:", err)
			return exitError
		}
		fmt.Println(string(out))
		return exitOK
	}
	fmt.Print(renderServeReport(snap))
	return exitOK
}

// renderServeReport formats the serving metrics of one registry snapshot.
func renderServeReport(snap obs.Snapshot) string {
	var b strings.Builder
	c := func(name string) int64 { return snap.Counters[name] }

	fmt.Fprintln(&b, "serving report")
	fmt.Fprintf(&b, "  responses: 2xx=%d 4xx=%d 5xx=%d\n",
		c("server_responses_2xx"), c("server_responses_4xx"), c("server_responses_5xx"))
	fmt.Fprintf(&b, "  admission: rejected(429)=%d queue_depth=%d inflight=%d\n",
		c("server_admission_rejected"), snap.Gauges["server_queue_depth"], snap.Gauges["server_inflight"])

	if hits, misses := c("rewrite_result_cache_hits"), c("rewrite_result_cache_misses"); hits+misses == 0 {
		fmt.Fprintln(&b, "  result cache: no traffic")
	} else {
		fmt.Fprintf(&b, "  result cache: %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}

	fmt.Fprintf(&b, "  batch: %d requests, %d items got a worker\n",
		c("server_batch_requests"), c("server_batch_items"))
	if h, ok := snap.Histograms["server_batch_item_wait"]; ok && h.Count > 0 {
		fmt.Fprintf(&b, "  batch item queue wait: p50=%.3fms p90=%.3fms p99=%.3fms (n=%d)\n",
			1e3*h.P50Seconds, 1e3*h.P90Seconds, 1e3*h.P99Seconds, h.Count)
	}

	var endpoints []string
	for name := range snap.Histograms {
		if ep, ok := strings.CutPrefix(name, "server_latency_"); ok {
			endpoints = append(endpoints, ep)
		}
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		h := snap.Histograms["server_latency_"+ep]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  latency %-8s p50=%.3fms p90=%.3fms p99=%.3fms (n=%d)\n",
			ep, 1e3*h.P50Seconds, 1e3*h.P90Seconds, 1e3*h.P99Seconds, h.Count)
	}
	return b.String()
}
