package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wetune/internal/obs"
	"wetune/internal/obs/journal"
)

// ladderHarness builds a ladder over an isolated registry with the default
// hysteresis depths (DegradeAfter 3, RecoverAfter 10) unless cfg overrides.
func ladderHarness(t *testing.T, cfg DegradationConfig) (*ladder, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	return newLadder(cfg.withDefaults(time.Second), reg, journal.New(1<<8)), reg
}

// p99 samples for the default thresholds of a 1s request timeout (HighP99
// 250ms, LowP99 62.5ms): hot reaches the high threshold, cool is at or below
// the low one, neutral is between.
const (
	hotP99     = time.Second
	coolP99    = time.Millisecond
	neutralP99 = 100 * time.Millisecond
)

// feed replays a sample script: 'H' hot, 'P' exactly HighP99, 'C' cool, 'L'
// exactly LowP99, 'N' neutral.
func feed(t *testing.T, l *ladder, script string) {
	t.Helper()
	for _, c := range script {
		switch c {
		case 'H':
			l.observe(hotP99)
		case 'P':
			l.observe(l.cfg.HighP99)
		case 'C':
			l.observe(coolP99)
		case 'L':
			l.observe(l.cfg.LowP99)
		case 'N':
			l.observe(neutralP99)
		default:
			t.Fatalf("bad script rune %q", c)
		}
	}
}

// TestLadderHysteresis is the table-driven transition test: each case replays
// a p99 script through a fresh ladder and pins the resulting level and
// transition counts against the hysteresis contract (DegradeAfter=3
// consecutive hot samples step full down to cache_only, RecoverAfter=10
// consecutive cool samples step it back up, a neutral sample resets both
// streaks).
func TestLadderHysteresis(t *testing.T) {
	cool9 := "CCCCCCCCC"
	cool10 := cool9 + "C"
	cases := []struct {
		name      string
		script    string
		want      ServiceLevel
		degraded  int64
		recovered int64
	}{
		{"idle stays full", "NNCCNN", LevelFull, 0, 0},
		{"one short of degrade", "HH", LevelFull, 0, 0},
		{"third hot degrades", "HHH", LevelCacheOnly, 1, 0},
		{"p99 alone degrades", "PPP", LevelCacheOnly, 1, 0},
		{"neutral resets hot streak", "HHNHH", LevelFull, 0, 0},
		{"cool resets hot streak", "HHCHH", LevelFull, 0, 0},
		{"floor clamps", "HHHHHHHHHHHHHHH", LevelCacheOnly, 1, 0},
		{"streak resets at each rung", "HHH" + cool10 + "HH", LevelFull, 1, 1},
		{"nine cools do not recover", "HHH" + cool9, LevelCacheOnly, 1, 0},
		{"ten cools recover one rung", "HHH" + cool10, LevelFull, 1, 1},
		{"low p99 is cool", "HHH" + "LLLLLLLLLL", LevelFull, 1, 1},
		{"neutral resets cool streak", "HHH" + cool9 + "N" + cool9, LevelCacheOnly, 1, 0},
		{"hot resets cool streak", "HHH" + cool9 + "H" + cool9, LevelCacheOnly, 1, 0},
		{"full recovery from floor", "HHHHHH" + cool10 + "HHH" + cool10, LevelFull, 2, 2},
		{"cool at full is a no-op", cool10 + cool10, LevelFull, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, reg := ladderHarness(t, DegradationConfig{})
			feed(t, l, tc.script)
			if got := l.current(); got != tc.want {
				t.Errorf("level = %v, want %v", got, tc.want)
			}
			if got := reg.Counter("server_level_degraded").Value(); got != tc.degraded {
				t.Errorf("degraded = %d, want %d", got, tc.degraded)
			}
			if got := reg.Counter("server_level_recovered").Value(); got != tc.recovered {
				t.Errorf("recovered = %d, want %d", got, tc.recovered)
			}
			if got := reg.Counter("server_level_transitions").Value(); got != tc.degraded+tc.recovered {
				t.Errorf("transitions = %d, want %d", got, tc.degraded+tc.recovered)
			}
			if got := reg.Gauge("server_service_level").Value(); got != int64(tc.want) {
				t.Errorf("server_service_level gauge = %d, want %d", got, int64(tc.want))
			}
		})
	}
}

// TestLadderLevelStrings pins the header vocabulary; clients and the soak
// harness match on these strings.
func TestLadderLevelStrings(t *testing.T) {
	want := map[ServiceLevel]string{
		LevelFull:      "full",
		LevelCacheOnly: "cache_only",
	}
	for lvl, s := range want {
		if lvl.String() != s {
			t.Errorf("%d.String() = %q, want %q", lvl, lvl.String(), s)
		}
	}
	if ServiceLevel(99).String() != "unknown" {
		t.Errorf("out-of-range level = %q, want unknown", ServiceLevel(99).String())
	}
}

// TestClosedLoopLoadIsServedAtFull: at the default config, eight closed-loop
// clients keep the admission queue busy while the rewrite p99 stays far below
// the hot threshold, so every 200 is a full rewrite. A busy queue is
// admission's business (429), not a reason to stop rewriting.
func TestClosedLoopLoadIsServedAtFull(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	t.Cleanup(func() { s.stopControl() })
	var next, answered, unrewritten atomic.Int64
	stop := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				q := fmt.Sprintf(`{"sql": "SELECT DISTINCT id FROM labels WHERE project_id = %d"}`, next.Add(1))
				rec := do(s, http.MethodPost, "/v1/rewrite", q)
				if rec.Code != http.StatusOK {
					continue
				}
				answered.Add(1)
				var res struct {
					Applied []json.RawMessage `json:"applied"`
					Mode    string            `json:"mode"`
				}
				err := json.Unmarshal(rec.Body.Bytes(), &res)
				if err != nil || rec.Header().Get("X-WeTune-Service-Level") != "full" || res.Mode != "" || len(res.Applied) == 0 {
					unrewritten.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if answered.Load() == 0 {
		t.Fatal("no request was answered 200")
	}
	if n := unrewritten.Load(); n > 0 {
		t.Errorf("%d of %d 200s were not full rewrites", n, answered.Load())
	}
}

// breakerHarness builds a breaker with threshold 3 and a 1-minute cooldown
// over an isolated registry, plus a fixed time base for deterministic clocks.
func breakerHarness(t *testing.T) (*breaker, *obs.Registry, time.Time) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := DegradationConfig{BreakerThreshold: 3, BreakerCooldown: time.Minute}.withDefaults(time.Second)
	return newBreaker(cfg, reg, journal.New(1<<8)), reg, time.Unix(1000, 0)
}

// TestBreakerOpensAfterConsecutiveTruncations: the streak must be unbroken —
// one success resets it — and crossing the threshold opens the breaker and
// moves the gauge.
func TestBreakerOpensAfterConsecutiveTruncations(t *testing.T) {
	b, reg, t0 := breakerHarness(t)
	if forced, probe := b.admit(t0); forced || probe {
		t.Fatal("closed breaker must admit normally")
	}
	b.observe(true, false, t0)
	b.observe(true, false, t0)
	b.observe(false, false, t0) // success resets the streak
	b.observe(true, false, t0)
	b.observe(true, false, t0)
	if state, consec := b.snapshot(); state != breakerClosed || consec != 2 {
		t.Fatalf("state = %d consec = %d, want closed/2 (streak must have reset)", state, consec)
	}
	b.observe(true, false, t0)
	if state, _ := b.snapshot(); state != breakerOpen {
		t.Fatalf("state = %d, want open after 3 consecutive truncations", state)
	}
	if got := reg.Counter("server_breaker_opened").Value(); got != 1 {
		t.Errorf("server_breaker_opened = %d, want 1", got)
	}
	if got := reg.Gauge("server_breaker_open").Value(); got != 1 {
		t.Errorf("server_breaker_open gauge = %d, want 1", got)
	}
}

// openBreaker drives b to open with three truncations at t0.
func openBreaker(t *testing.T, b *breaker, t0 time.Time) {
	t.Helper()
	for i := 0; i < 3; i++ {
		b.observe(true, false, t0)
	}
	if state, _ := b.snapshot(); state != breakerOpen {
		t.Fatalf("breaker did not open")
	}
}

// TestBreakerForcesCacheOnlyDuringCooldown: while open and within cooldown,
// every request is forced; the first admit past the cooldown becomes the
// half-open probe and concurrent requests stay forced.
func TestBreakerForcesCacheOnlyDuringCooldown(t *testing.T) {
	b, _, t0 := breakerHarness(t)
	openBreaker(t, b, t0)
	if forced, probe := b.admit(t0.Add(30 * time.Second)); !forced || probe {
		t.Errorf("admit within cooldown = (%v, %v), want forced", forced, probe)
	}
	if forced, probe := b.admit(t0.Add(time.Minute)); forced || !probe {
		t.Errorf("admit after cooldown = (%v, %v), want probe", forced, probe)
	}
	if state, _ := b.snapshot(); state != breakerHalfOpen {
		t.Errorf("state after probe admit = %d, want half-open", state)
	}
	// One probe at a time: a second request while the probe is in flight is
	// still forced.
	if forced, probe := b.admit(t0.Add(61 * time.Second)); !forced || probe {
		t.Errorf("admit during probe = (%v, %v), want forced", forced, probe)
	}
}

// TestBreakerProbeOutcome: a successful probe closes the breaker (gauge back
// to zero, streak cleared); a truncated probe re-opens it and restarts the
// cooldown from the probe's time.
func TestBreakerProbeOutcome(t *testing.T) {
	t.Run("success closes", func(t *testing.T) {
		b, reg, t0 := breakerHarness(t)
		openBreaker(t, b, t0)
		tProbe := t0.Add(time.Minute)
		if _, probe := b.admit(tProbe); !probe {
			t.Fatal("expected the probe slot")
		}
		b.observe(false, true, tProbe)
		if state, consec := b.snapshot(); state != breakerClosed || consec != 0 {
			t.Errorf("state = %d consec = %d, want closed/0", state, consec)
		}
		if got := reg.Gauge("server_breaker_open").Value(); got != 0 {
			t.Errorf("server_breaker_open gauge = %d, want 0", got)
		}
		if got := reg.Counter("server_breaker_closed").Value(); got != 1 {
			t.Errorf("server_breaker_closed = %d, want 1", got)
		}
	})
	t.Run("truncation re-opens", func(t *testing.T) {
		b, reg, t0 := breakerHarness(t)
		openBreaker(t, b, t0)
		tProbe := t0.Add(time.Minute)
		if _, probe := b.admit(tProbe); !probe {
			t.Fatal("expected the probe slot")
		}
		b.observe(true, true, tProbe)
		if state, _ := b.snapshot(); state != breakerOpen {
			t.Errorf("state = %d, want re-opened", state)
		}
		// The cooldown restarts at the failed probe, not the original open.
		if forced, probe := b.admit(tProbe.Add(30 * time.Second)); !forced || probe {
			t.Errorf("admit mid-second-cooldown = (%v, %v), want forced", forced, probe)
		}
		if forced, probe := b.admit(tProbe.Add(time.Minute)); forced || !probe {
			t.Errorf("admit after second cooldown = (%v, %v), want a new probe", forced, probe)
		}
		// The gauge still counts this breaker exactly once across
		// open → half-open → open.
		if got := reg.Gauge("server_breaker_open").Value(); got != 1 {
			t.Errorf("server_breaker_open gauge = %d, want 1", got)
		}
	})
}

// TestBreakerIgnoresStaleOutcomes: a non-probe search that raced the breaker
// opening must not disturb the open state or the streak.
func TestBreakerIgnoresStaleOutcomes(t *testing.T) {
	b, _, t0 := breakerHarness(t)
	openBreaker(t, b, t0)
	b.observe(true, false, t0)  // stale truncation
	b.observe(false, false, t0) // stale success
	if state, _ := b.snapshot(); state != breakerOpen {
		t.Errorf("state = %d, want still open after stale outcomes", state)
	}
	if forced, _ := b.admit(t0.Add(time.Second)); !forced {
		t.Error("stale outcomes must not close an open breaker")
	}
}

// TestBreakerPerApp: breakers are per-app lazily created state — opening one
// app's breaker must not force another app's requests.
func TestBreakerPerApp(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) {
		c.Degradation.BreakerThreshold = 3
	})
	t.Cleanup(func() { s.stopControl() })
	a, b := s.breakerFor("demo"), s.breakerFor("demo")
	if a != b {
		t.Error("breakerFor returned distinct breakers for one app")
	}
	openBreaker(t, a, time.Unix(1000, 0))
	other := s.breakerFor("other-app")
	if forced, _ := other.admit(time.Unix(1000, 0)); forced {
		t.Error("another app's breaker opened by proxy")
	}
}

// TestDegradationDisabled: with the controller off, the level pins to full
// and no breakers exist.
func TestDegradationDisabled(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) {
		c.Degradation.Disabled = true
	})
	if got := s.CurrentServiceLevel(); got != LevelFull {
		t.Errorf("CurrentServiceLevel = %v, want full", got)
	}
	if s.breakerFor("demo") != nil {
		t.Error("breakerFor should be nil with degradation disabled")
	}
}
