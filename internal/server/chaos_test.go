package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wetune/internal/faultinject"
	"wetune/internal/obs"
)

// TestServiceLevelHeaderIdle: an unloaded server serves at full effort and
// says so — single and batch requests both carry the level header.
func TestServiceLevelHeaderIdle(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	t.Cleanup(func() { s.stopControl() })
	rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; body: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-WeTune-Service-Level"); got != "full" {
		t.Errorf("service-level header = %q, want full", got)
	}
	rec = do(s, http.MethodPost, "/v1/rewrite", `{"queries": [{"sql": "SELECT id FROM labels"}]}`)
	if got := rec.Header().Get("X-WeTune-Service-Level"); got != "full" {
		t.Errorf("batch service-level header = %q, want full", got)
	}
}

// TestLadderDegradesAndRecoversUnderLoad drives the ladder end to end through
// the real controller: slow rewrites push the windowed p99 over the hot
// threshold, the ladder steps down to cache_only, and once the load (and the
// slowness) stops it steps back to full.
func TestLadderDegradesAndRecoversUnderLoad(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	s, reg, _ := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.Degradation = DegradationConfig{
			SampleEvery:  5 * time.Millisecond,
			DegradeAfter: 2,
			RecoverAfter: 3,
			HighP99:      2 * time.Millisecond,
			LowP99:       time.Millisecond,
		}
		c.beforeRewrite = func(string) {
			if slow.Load() {
				time.Sleep(8 * time.Millisecond)
			}
		}
	})
	t.Cleanup(func() { s.stopControl() })

	// Concurrent load so every controller window contains slow completions.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf(`{"sql": "SELECT DISTINCT id FROM labels WHERE id = %d"}`, g*100000+i)
				do(s, http.MethodPost, "/v1/rewrite", q)
			}
		}(g)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.CurrentServiceLevel() == LevelFull && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	degraded := s.CurrentServiceLevel()
	close(stop)
	wg.Wait()
	if degraded == LevelFull {
		t.Fatal("ladder never degraded under sustained slow rewrites")
	}

	// Load gone, slowness gone: the controller must walk the level back up.
	slow.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for s.CurrentServiceLevel() != LevelFull && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.CurrentServiceLevel(); got != LevelFull {
		t.Fatalf("ladder did not recover: level %v", got)
	}
	if got := reg.Counter("server_level_transitions").Value(); got < 2 {
		t.Errorf("transitions = %d, want >= 2 (a degrade and a recover)", got)
	}
}

// TestClientDeadlineLeavesOtherRequestsAlone: one client whose own
// timeout_ms cuts its searches gets 504s, and nothing else. A fresh request
// with the default deadline, single or batch, is still a full rewrite served
// at the level its header reports.
func TestClientDeadlineLeavesOtherRequestsAlone(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) {
		c.beforeRewrite = func(sqlText string) {
			if strings.Contains(sqlText, "project_id") {
				time.Sleep(5 * time.Millisecond)
			}
		}
	})
	t.Cleanup(func() { s.stopControl() })

	// Each marked request's 1ms budget expires during its 5ms stall, so its
	// search deadline-truncates and answers 504.
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf(`{"sql": "SELECT DISTINCT id FROM labels WHERE project_id = %d", "timeout_ms": 1}`, i)
		rec := do(s, http.MethodPost, "/v1/rewrite", q)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("marked request %d: status = %d, want 504; body: %s", i, rec.Code, rec.Body)
		}
	}

	type answer struct {
		Output  string            `json:"output"`
		Applied []json.RawMessage `json:"applied"`
		Mode    string            `json:"mode"`
	}
	check := func(what string, a answer, want string) {
		t.Helper()
		if a.Mode != "" || len(a.Applied) == 0 || a.Output != want {
			t.Errorf("%s: mode %q, %d rules applied, output %q; want a full rewrite", what, a.Mode, len(a.Applied), a.Output)
		}
	}
	rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels WHERE id = 4242"}`)
	if rec.Code != http.StatusOK || rec.Header().Get("X-WeTune-Service-Level") != "full" {
		t.Fatalf("fresh request: status = %d, service level %q; body: %s", rec.Code, rec.Header().Get("X-WeTune-Service-Level"), rec.Body)
	}
	var single answer
	if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	check("single", single, "SELECT labels.id FROM labels WHERE labels.id = 4242")

	rec = do(s, http.MethodPost, "/v1/rewrite", `{"queries": [{"sql": "SELECT DISTINCT id FROM labels WHERE id = 4243"}]}`)
	var batch struct{ Results []answer }
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || len(batch.Results) != 1 {
		t.Fatalf("batch: %v; body: %s", err, rec.Body)
	}
	check("batch item", batch.Results[0], "SELECT labels.id FROM labels WHERE labels.id = 4243")
}

// TestChaosAllFaultPoints is the -race soak: every registered serving-path
// fault point armed at once, concurrent mixed traffic (singles, batches, bad
// SQL), and the contract that no failure escapes classification — every
// response is an expected status, every 500 carries the injected-fault
// header, no real panic is recorded, and the server drains to rest.
func TestChaosAllFaultPoints(t *testing.T) {
	s, reg, _ := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.Degradation = DegradationConfig{
			SampleEvery:  5 * time.Millisecond,
			DegradeAfter: 2,
			RecoverAfter: 2,
			HighP99:      5 * time.Millisecond,
			LowP99:       time.Millisecond,
		}
	})
	defer faultinject.Reset()
	if err := faultinject.Configure(1,
		faultinject.Fault{Point: faultinject.SearchStarve, Rate: 0.5},
		faultinject.Fault{Point: faultinject.CacheSlow, Rate: 0.3, Delay: 2 * time.Millisecond},
		faultinject.Fault{Point: faultinject.CacheFail, Rate: 0.5},
		faultinject.Fault{Point: faultinject.EncodeError, Rate: 0.2},
		faultinject.Fault{Point: faultinject.HandlerPanic, Rate: 0.1},
	); err != nil {
		t.Fatal(err)
	}
	// A fire's one record is its process-wide fault_injected_<point> counter.
	fired := func(pt faultinject.Point) int64 {
		return obs.Default().Counter("fault_injected_" + string(pt)).Value()
	}
	firedBefore := map[faultinject.Point]int64{}
	for _, pt := range faultinject.Points() {
		firedBefore[pt] = fired(pt)
	}

	var mu sync.Mutex
	statuses := map[int]int{}
	var unmarked500 int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var body string
				switch i % 4 {
				case 0:
					body = fmt.Sprintf(`{"sql": "SELECT DISTINCT id FROM labels WHERE id = %d"}`, g*1000+i)
				case 1:
					body = fmt.Sprintf(`{"queries": [{"sql": "SELECT id FROM labels WHERE id = %d"}, {"sql": "SELECT DISTINCT title FROM labels"}]}`, g*1000+i)
				case 2:
					body = `{"sql": "SELECT FROM WHERE"}` // 422
				default:
					body = `{"sql": "SELECT DISTINCT id FROM labels"}` // cacheable
				}
				rec := do(s, http.MethodPost, "/v1/rewrite", body)
				mu.Lock()
				statuses[rec.Code]++
				if rec.Code == http.StatusInternalServerError && rec.Header().Get("X-WeTune-Injected-Fault") == "" {
					unmarked500++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	for code := range statuses {
		switch code {
		case http.StatusOK, http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusInternalServerError:
		default:
			t.Errorf("unexpected status %d under chaos: %v", code, statuses)
		}
	}
	if unmarked500 > 0 {
		t.Errorf("%d 500s without the injected-fault header", unmarked500)
	}
	for _, pt := range faultinject.Points() {
		if fired(pt) == firedBefore[pt] {
			t.Errorf("point %q never fired over %d requests", pt, 8*40)
		}
	}
	if got := reg.Counter("server_panics").Value(); got != 0 {
		t.Errorf("server_panics = %d, want 0 — injected panics leaked into the real-panic counter", got)
	}
	panics := fired(faultinject.HandlerPanic) - firedBefore[faultinject.HandlerPanic]
	if inj := reg.Counter("server_injected_panics").Value(); inj != panics {
		t.Errorf("server_injected_panics = %d, fired = %d", inj, panics)
	}

	// Disarm, let the ladder settle, and drain: the daemon must be at rest.
	faultinject.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for s.CurrentServiceLevel() != LevelFull && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.CurrentServiceLevel(); got != LevelFull {
		t.Errorf("ladder did not recover after chaos: level %v", got)
	}
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("shutdown after chaos: %v", err)
	}
	if v := reg.Gauge("server_inflight").Value(); v != 0 {
		t.Errorf("server_inflight = %d after drain, want 0", v)
	}
	if v := reg.Gauge("server_queue_depth").Value(); v != 0 {
		t.Errorf("server_queue_depth = %d after drain, want 0", v)
	}
}

// TestEncodeErrorOnRewriteResponses: the encode_error point fires on the
// single and batch rewrite answers — 500, code internal, and the
// injected-fault header naming the point.
func TestEncodeErrorOnRewriteResponses(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	t.Cleanup(func() { s.stopControl() })
	defer faultinject.Reset()
	if err := faultinject.Configure(1, faultinject.Fault{Point: faultinject.EncodeError, Rate: 1}); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"sql": "SELECT DISTINCT id FROM labels"}`,
		`{"queries": [{"sql": "SELECT DISTINCT id FROM labels"}]}`,
	} {
		rec := do(s, http.MethodPost, "/v1/rewrite", body)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status = %d, want 500; body: %s", body, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-WeTune-Injected-Fault"); got != string(faultinject.EncodeError) {
			t.Errorf("%s: injected-fault header = %q, want %q", body, got, faultinject.EncodeError)
		}
		if e := decodeError(t, rec.Body.String()); e.Code != codeInternal {
			t.Errorf("%s: code = %q, want %q", body, e.Code, codeInternal)
		}
	}
}
