// Package obs is the repository's dependency-free observability layer: a
// concurrent metrics registry (counters, gauges, fixed-bucket latency
// histograms) and exporters that render it as JSON or expvar.
//
// The discovery pipeline spends most of its time inside constraint
// relaxation and SMT proofs; per-pair and per-call latency histograms
// (pipeline_pair_seconds, pipeline_prover_seconds) and the solver's outcome
// counters tell one pathological pair from a cold solve memo or solver
// timeouts. Every hot path (pipeline stages, prover calls, DPLL search,
// rewrite matching) records into a Registry so the answer is one snapshot
// away. All types are safe for concurrent use; the hot-path operations
// (Counter.Add, Gauge.Add, Histogram.Observe) are single atomic updates.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry, or use the process-wide Default registry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that instrumented packages
// (pipeline, smt, verify, spes, rewrite) record into unless handed another.
func Default() *Registry { return defaultRegistry }

// Counter returns the named monotonic counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named latency histogram (default buckets), creating
// it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = NewHistogram(LatencyBuckets)
	r.hists[name] = h
	return h
}

// names returns the sorted metric names of one kind, for deterministic export.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous int64 level (e.g. queue depth).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LatencyBuckets are the fixed upper bounds used by Registry.Histogram:
// roughly logarithmic from 50µs to 60s, matched to the spread between an
// algebraic fast-path proof (tens of µs) and a pathological SMT call
// (seconds). Observations above the last bound land in an overflow bucket.
var LatencyBuckets = []time.Duration{
	50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
	500 * time.Microsecond, time.Millisecond, 2500 * time.Microsecond,
	5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
	50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
	500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
	5 * time.Second, 10 * time.Second, 30 * time.Second, 60 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Observations are two atomic
// adds; quantiles are estimated from bucket counts by linear interpolation
// (resolution = bucket width, which is what p50/p90/p99 dashboards need).
type Histogram struct {
	bounds  []time.Duration
	buckets []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram over ascending upper bounds. An extra
// overflow bucket catches observations above the last bound.
func NewHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by interpolating inside the
// bucket holding the target rank. Observations in the overflow bucket report
// the last finite bound (a lower bound on the true value).
func (h *Histogram) Quantile(q float64) time.Duration {
	return CountsQuantile(h.bounds, h.Counts(), q)
}

// Bounds returns the histogram's bucket upper bounds. The slice is shared;
// callers must not mutate it.
func (h *Histogram) Bounds() []time.Duration { return h.bounds }

// Counts returns a snapshot of the per-bucket observation counts
// (len(Bounds())+1 entries; the last is the overflow bucket). Each count is
// read atomically; the vector as a whole is a consistent sample in the same
// sense as Snapshot — counts are monotone, so the difference of two
// snapshots is the traffic of the interval between them. That difference is
// what windowed quantiles (e.g. a load controller's p99-over-the-last-tick)
// feed to CountsQuantile.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// CountsQuantile estimates the q-quantile of an explicit per-bucket count
// vector over the given bounds — the same interpolation Histogram.Quantile
// uses, factored out so interval deltas of Counts snapshots can be ranked
// without a Histogram instance. counts must have len(bounds)+1 entries
// (overflow last); a zero-total vector reports 0.
func CountsQuantile(bounds []time.Duration, counts []int64, q float64) time.Duration {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	lower := time.Duration(0)
	for i, bound := range bounds {
		c := float64(counts[i])
		if cum+c >= rank && c > 0 {
			frac := (rank - cum) / c
			return lower + time.Duration(frac*float64(bound-lower))
		}
		cum += c
		lower = bound
	}
	return bounds[len(bounds)-1]
}
