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

// TestDegradationDisabled: with the controller off, the level pins to full,
// no controller goroutine runs, and requests are served at full.
func TestDegradationDisabled(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) {
		c.Degradation.Disabled = true
	})
	if got := s.CurrentServiceLevel(); got != LevelFull {
		t.Errorf("CurrentServiceLevel = %v, want full", got)
	}
	if s.lad != nil || s.ctrlStop != nil {
		t.Error("a disabled controller must build no ladder and start no goroutine")
	}
	rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT DISTINCT id FROM labels"}`)
	if got := rec.Header().Get("X-WeTune-Service-Level"); rec.Code != http.StatusOK || got != "full" {
		t.Errorf("status = %d, service-level header = %q, want 200 and full", rec.Code, got)
	}
}
