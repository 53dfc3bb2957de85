package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"os"
	"sync"
	"time"
)

// Snapshot is a point-in-time, serializable view of a registry. Taking a
// snapshot is sampling-safe: metric values are read with atomic loads while
// writers keep updating, so a snapshot is cheap enough to serve from a live
// debug endpoint mid-run (individual values are each consistent; the set is
// not a global atomic cut, which monitoring does not need).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot summarizes one histogram: totals, interpolated quantiles,
// and the non-empty buckets (upper bound in seconds, per-bucket count; the
// bucket with LE 0 is the overflow bucket above the last bound).
type HistogramSnapshot struct {
	Count      int64         `json:"count"`
	SumSeconds float64       `json:"sum_seconds"`
	P50Seconds float64       `json:"p50_seconds"`
	P90Seconds float64       `json:"p90_seconds"`
	P99Seconds float64       `json:"p99_seconds"`
	Buckets    []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	// LESeconds is the bucket's inclusive upper bound in seconds; 0 marks the
	// overflow bucket (observations above the largest finite bound).
	LESeconds float64 `json:"le_seconds"`
	Count     int64   `json:"count"`
}

// Snapshot captures every metric currently in the registry.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range sortedKeys(r.counters) {
		snap.Counters[name] = r.counters[name].Value()
	}
	for _, name := range sortedKeys(r.gauges) {
		snap.Gauges[name] = r.gauges[name].Value()
	}
	for _, name := range sortedKeys(r.hists) {
		snap.Histograms[name] = r.hists[name].Snapshot()
	}
	return snap
}

// Snapshot summarizes the histogram from one read of the bucket counts:
// Count, the quantiles and Buckets all derive from that single copy, so they
// agree with each other exactly (Count is the sum of Buckets) however many
// writers are mid-Observe. Only Sum is a separate counter and may lag the
// buckets by the observations in flight.
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts := h.Counts()
	// Quantiles round to 1µs: interpolation below bucket resolution is noise,
	// and rounding keeps the JSON rendering stable for golden tests.
	quantile := func(q float64) float64 {
		return CountsQuantile(h.bounds, counts, q).Round(time.Microsecond).Seconds()
	}
	hs := HistogramSnapshot{
		SumSeconds: h.Sum().Seconds(),
		P50Seconds: quantile(0.50),
		P90Seconds: quantile(0.90),
		P99Seconds: quantile(0.99),
	}
	for i, c := range counts {
		if c == 0 {
			continue
		}
		hs.Count += c
		le := 0.0
		if i < len(h.bounds) {
			le = h.bounds[i].Seconds()
		}
		hs.Buckets = append(hs.Buckets, BucketCount{LESeconds: le, Count: c})
	}
	return hs
}

// WriteJSON renders the registry snapshot as indented JSON. Map keys are
// sorted by encoding/json, so identical metric values produce identical
// bytes (golden-testable).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// DumpFile writes the registry snapshot as JSON to path.
func (r *Registry) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var (
	publishMu  sync.Mutex
	publishSet = map[string]bool{}
)

// PublishExpvar exposes the registry under the given expvar name (served on
// /debug/vars by net/http when the expvar handler is installed). Republishing
// the same name is a no-op rather than the expvar.Publish panic, so the CLI
// can wire the debug endpoint on every run.
func PublishExpvar(name string, r *Registry) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if publishSet[name] {
		return
	}
	publishSet[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
