package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wetune/internal/faultinject"
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

// TestBreakerEndToEnd: repeated deadline-truncated searches open the app's
// breaker (requests answer cache-only passthrough regardless of the ladder),
// and after the cooldown a successful probe closes it again.
func TestBreakerEndToEnd(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	s, _, _ := newTestServer(t, func(c *Config) {
		c.Degradation = DegradationConfig{
			// Ladder effectively off (hour-long sampling); only the breaker acts.
			SampleEvery:      time.Hour,
			BreakerThreshold: 2,
			BreakerCooldown:  50 * time.Millisecond,
		}
		c.beforeRewrite = func(string) {
			if slow.Load() {
				time.Sleep(5 * time.Millisecond)
			}
		}
	})
	t.Cleanup(func() { s.stopControl() })
	br := s.breakerFor("demo")

	// Each request's 1ms budget expires during the 5ms pre-rewrite stall, so
	// the search deadline-truncates and answers 504. A request whose budget
	// expires before it even reaches the search does not feed the breaker, so
	// loop until the truncation streak opens it.
	opened := false
	for i := 0; i < 50 && !opened; i++ {
		q := fmt.Sprintf(`{"sql": "SELECT DISTINCT id FROM labels WHERE id = %d", "timeout_ms": 1}`, i)
		rec := do(s, http.MethodPost, "/v1/rewrite", q)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status = %d, want 504; body: %s", i, rec.Code, rec.Body)
		}
		state, _ := br.snapshot()
		opened = state == breakerOpen
	}
	if !opened {
		t.Fatal("breaker never opened under repeated deadline truncations")
	}

	// While open: forced cache-only — a cache miss passes the query through
	// unchanged with 200, even though a real search would still truncate.
	rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels WHERE id = 777777", "timeout_ms": 1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("forced cache-only status = %d, want 200; body: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"mode":"cache_only"`) {
		t.Errorf("forced answer not marked cache_only: %s", rec.Body)
	}

	// After the cooldown a healthy probe closes the breaker and full-effort
	// service resumes.
	slow.Store(false)
	time.Sleep(60 * time.Millisecond)
	rec = do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels WHERE id = 888888"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("probe status = %d; body: %s", rec.Code, rec.Body)
	}
	if state, _ := br.snapshot(); state != breakerClosed {
		t.Fatalf("breaker state = %d after healthy probe, want closed", state)
	}
	if strings.Contains(rec.Body.String(), `"mode":"cache_only"`) {
		t.Error("probe was served cache-only; it must run a real search")
	}
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
		faultinject.Fault{Point: faultinject.ProverStall, Rate: 1, Delay: time.Millisecond},
		faultinject.Fault{Point: faultinject.SearchStarve, Rate: 0.5},
		faultinject.Fault{Point: faultinject.CacheSlow, Rate: 0.3, Delay: 2 * time.Millisecond},
		faultinject.Fault{Point: faultinject.CacheFail, Rate: 0.5},
		faultinject.Fault{Point: faultinject.EncodeError, Rate: 0.2},
		faultinject.Fault{Point: faultinject.HandlerPanic, Rate: 0.1},
	); err != nil {
		t.Fatal(err)
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
	for _, pt := range []faultinject.Point{
		faultinject.CacheSlow, faultinject.CacheFail,
		faultinject.EncodeError, faultinject.HandlerPanic,
	} {
		if faultinject.Fired(pt) == 0 {
			t.Errorf("point %q never fired over %d requests", pt, 8*40)
		}
	}
	if got := reg.Counter("server_panics").Value(); got != 0 {
		t.Errorf("server_panics = %d, want 0 — injected panics leaked into the real-panic counter", got)
	}
	if inj := reg.Counter("server_injected_panics").Value(); inj != faultinject.Fired(faultinject.HandlerPanic) {
		t.Errorf("server_injected_panics = %d, fired = %d", inj, faultinject.Fired(faultinject.HandlerPanic))
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
