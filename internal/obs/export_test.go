package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestWriteJSONWhileWriting hammers the registry from writer goroutines while
// the exporter serializes it: every emitted document must be valid JSON with
// internally consistent metrics (run under -race in CI, which is the real
// assertion).
func TestWriteJSONWhileWriting(t *testing.T) {
	reg := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					reg.Counter("c").Inc()
					reg.Gauge("g").Add(1)
					reg.Histogram("h").Observe(time.Duration(w+1) * time.Millisecond)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.String())
		}
		h := snap.Histograms["h"]
		var inBuckets int64
		for _, b := range h.Buckets {
			inBuckets += b.Count
		}
		// A snapshot derives Count from the same single read of the buckets
		// it exports, so the two agree exactly whatever the writers do.
		if inBuckets != h.Count {
			t.Fatalf("bucket total %d != count %d: snapshot read the histogram more than once", inBuckets, h.Count)
		}
	}
	close(done)
	wg.Wait()
}

// TestSnapshotEmptyHistogram: a histogram that exists but never observed
// anything must export zero quantiles and no buckets, not NaN or a panic.
func TestSnapshotEmptyHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty")
	snap := reg.Snapshot()
	h, ok := snap.Histograms["empty"]
	if !ok {
		t.Fatal("empty histogram missing from snapshot")
	}
	if h.Count != 0 || h.SumSeconds != 0 {
		t.Fatalf("empty histogram has totals: %+v", h)
	}
	if h.P50Seconds != 0 || h.P90Seconds != 0 || h.P99Seconds != 0 {
		t.Fatalf("empty histogram has non-zero quantiles: %+v", h)
	}
	if len(h.Buckets) != 0 {
		t.Fatalf("empty histogram exported buckets: %+v", h.Buckets)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON for empty histogram:\n%s", buf.String())
	}
}

// TestQuantileSingleSample: with one observation, every quantile is that
// observation's bucket upper bound (the estimator interpolates to the top of
// the only occupied bucket).
func TestQuantileSingleSample(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	h.Observe(80 * time.Microsecond) // bucket (50µs, 100µs]
	want := 100 * time.Microsecond
	for _, q := range []float64{0.50, 0.90, 0.99} {
		if got := h.Quantile(q); got != want {
			t.Fatalf("q=%v with one sample = %v, want bucket bound %v", q, got, want)
		}
	}
	snap := h.Snapshot()
	if snap.P50Seconds != snap.P99Seconds {
		t.Fatalf("single-sample quantiles differ: %+v", snap)
	}
	if snap.Count != 1 || len(snap.Buckets) != 1 {
		t.Fatalf("single-sample snapshot wrong: %+v", snap)
	}
}

// TestQuantileFirstBucket: an observation at or below the smallest bound
// interpolates from zero, so tiny quantile ranks stay inside the first bucket.
func TestQuantileFirstBucket(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	h.Observe(0)
	if got := h.Quantile(0.5); got < 0 || got > LatencyBuckets[0] {
		t.Fatalf("zero-duration sample quantile %v outside first bucket (0, %v]", got, LatencyBuckets[0])
	}
	// Negative durations clamp to zero rather than corrupting the sum.
	h.Observe(-time.Second)
	if h.Sum() != 0 {
		t.Fatalf("negative observation leaked into sum: %v", h.Sum())
	}
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2", h.Count())
	}
}

// TestDumpFileConcurrent: DumpFile is safe against concurrent metric writes
// and produces a parseable file.
func TestDumpFileConcurrent(t *testing.T) {
	reg := NewRegistry()
	path := t.TempDir() + "/metrics.json"
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				reg.Counter("writes").Inc()
				reg.Histogram("lat").Observe(time.Microsecond)
			}
		}
	}()
	for i := 0; i < 10; i++ {
		if err := reg.DumpFile(path); err != nil {
			t.Fatal(err)
		}
	}
	// The dumps can outrun the writer's first scheduling slice; hold the
	// writer open until it has observably written.
	for reg.Counter("writes").Value() == 0 {
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	// One final dump after the writer stopped pins the deterministic check
	// (the concurrent dumps above are the race-detector assertion).
	if err := reg.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["writes"] == 0 {
		t.Fatal("dump saw no writes")
	}
}
