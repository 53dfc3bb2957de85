package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one counter, one gauge and one histogram
// from many goroutines, resolving each metric by name every iteration so the
// registry's read path races against creation. Run under -race.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("proofs").Inc()
				reg.Gauge("depth").Add(1)
				reg.Gauge("depth").Add(-1)
				reg.Histogram("latency").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("proofs").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := reg.Gauge("depth").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := reg.Histogram("latency").Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	snap := reg.Snapshot()
	if snap.Counters["proofs"] != workers*iters {
		t.Errorf("snapshot counter = %d", snap.Counters["proofs"])
	}
}

// TestSnapshotWhileWriting: taking snapshots concurrently with updates must
// be safe (the sampling-safety contract of the live debug endpoint).
func TestSnapshotWhileWriting(t *testing.T) {
	reg := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				reg.Counter("c").Inc()
				reg.Histogram("h").Observe(time.Millisecond)
			}
		}
	}()
	for i := 0; i < 100; i++ {
		snap := reg.Snapshot()
		if snap.Counters["c"] < 0 {
			t.Fatal("negative counter in snapshot")
		}
	}
	close(done)
	wg.Wait()
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	// 90 fast observations and 10 slow ones: p50 must land in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(80 * time.Microsecond) // bucket (50µs, 100µs]
	}
	for i := 0; i < 10; i++ {
		h.Observe(2 * time.Second) // bucket (1s, 2.5s]
	}
	if p50 := h.Quantile(0.50); p50 < 50*time.Microsecond || p50 > 100*time.Microsecond {
		t.Errorf("p50 = %v, want within (50µs, 100µs]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < time.Second || p99 > 2500*time.Millisecond {
		t.Errorf("p99 = %v, want within (1s, 2.5s]", p99)
	}
	if h.Quantile(0.50) > h.Quantile(0.99) {
		t.Error("quantiles not monotone")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	h.Observe(10 * time.Minute) // above the 60s top bound
	if got := h.Quantile(0.99); got != LatencyBuckets[len(LatencyBuckets)-1] {
		t.Errorf("overflow quantile = %v, want the last finite bound %v",
			got, LatencyBuckets[len(LatencyBuckets)-1])
	}
	snap := h.Snapshot()
	if len(snap.Buckets) != 1 || snap.Buckets[0].LESeconds != 0 {
		t.Errorf("overflow bucket not marked with le_seconds=0: %+v", snap.Buckets)
	}
}

// TestWriteJSONGolden: identical metric values must produce byte-identical
// JSON (the exporter is the machine-readable interface of `-metrics` and the
// BENCH trajectories).
func TestWriteJSONGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("smt_outcome_unsat").Add(5)
	reg.Gauge("pipeline_queue_depth").Set(-2)
	h := reg.Histogram("pipeline_pair_seconds")
	h.Observe(75 * time.Microsecond)
	h.Observe(300 * time.Microsecond)
	h.Observe(2 * time.Second)

	const golden = `{
  "counters": {
    "smt_outcome_unsat": 5
  },
  "gauges": {
    "pipeline_queue_depth": -2
  },
  "histograms": {
    "pipeline_pair_seconds": {
      "count": 3,
      "sum_seconds": 2.000375,
      "p50_seconds": 0.000375,
      "p90_seconds": 2.05,
      "p99_seconds": 2.455,
      "buckets": [
        {
          "le_seconds": 0.0001,
          "count": 1
        },
        {
          "le_seconds": 0.0005,
          "count": 1
        },
        {
          "le_seconds": 2.5,
          "count": 1
        }
      ]
    }
  }
}
`
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != golden {
		t.Errorf("JSON drifted from golden.\ngot:\n%s\nwant:\n%s", b.String(), golden)
	}
}

// TestPublishExpvarIdempotent: republishing must not hit expvar.Publish's
// duplicate-name panic.
func TestPublishExpvarIdempotent(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Inc()
	PublishExpvar("obs_test_registry", reg)
	PublishExpvar("obs_test_registry", reg) // second call: no panic
}
