package loadgen

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/server"
	"wetune/internal/workload"
)

func testServer(t *testing.T) *server.Server {
	t.Helper()
	schemas, _ := workload.RewriteCorpus(1)
	s, err := server.New(server.Config{
		Schemas:  schemas,
		Registry: obs.NewRegistry(),
		Journal:  journal.New(1 << 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunInProcess drives a bounded run against an in-process handler and
// checks the report's accounting: every request is answered, none 5xx, and
// the latency quantiles are populated and ordered.
func TestRunInProcess(t *testing.T) {
	const n = 64
	rep, err := Run(context.Background(), Options{
		Handler:     testServer(t).Handler(),
		Concurrency: 4,
		Iterations:  n,
		Duration:    time.Minute, // the iteration bound ends the run
		PerApp:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n {
		t.Errorf("requests = %d, want %d", rep.Requests, n)
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d, want 0 (status: %v)", rep.Errors, rep.Status)
	}
	if rep.Status["200"] == 0 {
		t.Errorf("no 200s at all: %v", rep.Status)
	}
	for code := range rep.Status {
		if code >= "500" && code < "600" {
			t.Errorf("5xx in status map: %v", rep.Status)
		}
	}
	if rep.P50MS <= 0 || rep.P50MS > rep.P99MS || rep.P99MS > rep.MaxMS {
		t.Errorf("quantiles unordered: p50=%v p99=%v max=%v", rep.P50MS, rep.P99MS, rep.MaxMS)
	}
	if rep.Target != "in-process" {
		t.Errorf("target = %q", rep.Target)
	}
	if rep.Render() == "" {
		t.Error("empty render")
	}
}

// TestRunPacedCountsFromDueTime offers twice what one worker can serve: a
// 5ms handler paced at 400/s. The run achieves about 200/s, and since every
// request is measured from when it was due, the growing backlog shows in the
// median instead of the handler's 5ms alone.
func TestRunPacedCountsFromDueTime(t *testing.T) {
	rep, err := Run(context.Background(), Options{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			time.Sleep(5 * time.Millisecond)
		}),
		Concurrency: 1,
		Rate:        400,
		Duration:    500 * time.Millisecond,
		PerApp:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ThroughputRPS < 100 || rep.ThroughputRPS > 250 {
		t.Errorf("achieved %.0f req/s, want about 200", rep.ThroughputRPS)
	}
	if rep.P50MS < 25 {
		t.Errorf("p50 = %.1fms, want well above the handler's 5ms", rep.P50MS)
	}
	if !strings.Contains(rep.Render(), "400/s offered") {
		t.Errorf("report does not show the offered rate:\n%s", rep.Render())
	}
}

// TestRunValidatesTarget checks the exactly-one-of BaseURL/Handler contract.
func TestRunValidatesTarget(t *testing.T) {
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Error("Run with no target should fail")
	}
	if _, err := Run(context.Background(), Options{BaseURL: "http://x", Handler: testServer(t).Handler()}); err == nil {
		t.Error("Run with both targets should fail")
	}
}

// TestQuantileExact pins the nearest-rank quantile on a known slice.
func TestQuantileExact(t *testing.T) {
	var lats []time.Duration
	for i := 1; i <= 100; i++ {
		lats = append(lats, time.Duration(i)*time.Millisecond)
	}
	if got := quantile(lats, 0.50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := quantile(lats, 0.99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", got)
	}
	if got := quantile(lats, 1.0); got != 100*time.Millisecond {
		t.Errorf("p100 = %v, want 100ms", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
