package server

import (
	"sync"
	"sync/atomic"
	"time"

	"wetune"
	"wetune/internal/obs"
	"wetune/internal/obs/journal"
)

// ServiceLevel is the serving degradation ladder's state: the optimizer's
// rewrite mode, used directly. When the windowed rewrite p99 stays high the
// load controller steps the level from full down to cache_only, answering
// from the result cache or with the query unchanged, instead of letting queue
// waits and deadline truncations climb; when the p99 falls it steps back up.
// A full admission queue is not the ladder's business: admission answers it
// with 429. Every /v1/rewrite response reports the level it was served at
// (its String) in the X-WeTune-Service-Level header.
type ServiceLevel = wetune.RewriteMode

// The ladder's two levels.
const (
	LevelFull      = wetune.ModeFull
	LevelCacheOnly = wetune.ModeCacheOnly
)

// DegradationConfig tunes the load controller. The zero value enables the
// controller with production defaults; set Disabled to serve every request at
// LevelFull unconditionally.
type DegradationConfig struct {
	// Disabled turns the controller (and the per-app circuit breakers) off.
	Disabled bool
	// SampleEvery is the controller's sampling period (default 100ms). Each
	// tick samples the rewrite-latency p99 over the tick.
	SampleEvery time.Duration
	// DegradeAfter is how many consecutive hot samples step the level down
	// to cache_only (default 3: degrade fast, ~300ms of sustained overload).
	DegradeAfter int
	// RecoverAfter is how many consecutive cool samples step the level back
	// up to full (default 10: recover slow, so a recovering server does not
	// oscillate against the load that degraded it — classic hysteresis).
	RecoverAfter int
	// HighP99: a sample is hot when the windowed rewrite p99 reaches this
	// (default RequestTimeout/4).
	HighP99 time.Duration
	// LowP99: a sample is cool when the windowed p99 is at or below this
	// (default RequestTimeout/16).
	LowP99 time.Duration
	// BreakerThreshold opens an app's circuit breaker after this many
	// consecutive deadline-truncated searches (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker forces cache-only answers
	// before letting one probe request try a real search (default 5s).
	BreakerCooldown time.Duration
}

func (c DegradationConfig) withDefaults(reqTimeout time.Duration) DegradationConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 100 * time.Millisecond
	}
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 3
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 10
	}
	if c.HighP99 <= 0 {
		c.HighP99 = reqTimeout / 4
	}
	if c.LowP99 <= 0 {
		c.LowP99 = reqTimeout / 16
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// ladder is the hysteresis state machine. observe is called from a single
// goroutine (the controller loop, or a test); current is safe from any
// goroutine — handlers read it per request with one atomic load.
type ladder struct {
	cfg   DegradationConfig
	level atomic.Int32

	// Streak counters, controller-goroutine-only.
	hot, cool int

	levelG             *obs.Gauge
	transC, degC, recC *obs.Counter
	jnl                *journal.Journal
}

func newLadder(cfg DegradationConfig, reg *obs.Registry, jnl *journal.Journal) *ladder {
	l := &ladder{
		cfg:    cfg,
		levelG: reg.Gauge("server_service_level"),
		transC: reg.Counter("server_level_transitions"),
		degC:   reg.Counter("server_level_degraded"),
		recC:   reg.Counter("server_level_recovered"),
		jnl:    jnl,
	}
	l.levelG.Set(int64(LevelFull))
	return l
}

// current returns the level handlers must serve at right now.
func (l *ladder) current() ServiceLevel { return ServiceLevel(l.level.Load()) }

// observe feeds one windowed rewrite p99 through the hysteresis machine. A
// sample is hot at or above HighP99, cool at or below LowP99 and neutral in
// between — a neutral sample resets both streaks, so a level change always
// reflects an unbroken run of agreement. DegradeAfter consecutive hot samples
// step full down to cache_only; RecoverAfter consecutive cool samples step
// it back up.
func (l *ladder) observe(p99 time.Duration) {
	switch {
	case p99 >= l.cfg.HighP99:
		l.hot++
		l.cool = 0
	case p99 <= l.cfg.LowP99:
		l.cool++
		l.hot = 0
	default:
		l.hot, l.cool = 0, 0
	}
	switch cur := l.current(); {
	case cur == LevelFull && l.hot >= l.cfg.DegradeAfter:
		l.step(cur, LevelCacheOnly)
		l.degC.Inc()
	case cur == LevelCacheOnly && l.cool >= l.cfg.RecoverAfter:
		l.step(cur, LevelFull)
		l.recC.Inc()
	}
}

func (l *ladder) step(from, to ServiceLevel) {
	l.level.Store(int32(to))
	l.levelG.Set(int64(to))
	l.transC.Inc()
	l.jnl.Record(journal.KindServiceLevel, -1, int64(from), int64(to))
}

// Circuit breaker states (also the journal.KindBreaker payload encoding).
const (
	breakerClosed int64 = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one app's deadline-truncation circuit breaker. Repeated
// deadline-truncated searches mean this app's working set currently cannot be
// searched within the request budget — burning a worker slot per request to
// prove that again is pure waste. The breaker opens after BreakerThreshold
// consecutive truncations and forces the app's requests to cache-only; after
// BreakerCooldown one probe request runs a real search, closing the breaker
// on success and re-opening it on another truncation (open → half-open →
// closed/open).
//
// Only requests that actually ran a search feed the breaker: cache hits and
// parse failures say nothing about search health, so they neither extend nor
// reset the truncation streak.
type breaker struct {
	mu       sync.Mutex
	state    int64
	consec   int       // consecutive deadline truncations while closed
	openedAt time.Time // when state last became open
	probing  bool      // a half-open probe is in flight

	threshold int
	cooldown  time.Duration

	openedC, closedC *obs.Counter
	openG            *obs.Gauge
	jnl              *journal.Journal
}

func newBreaker(cfg DegradationConfig, reg *obs.Registry, jnl *journal.Journal) *breaker {
	// openG counts breakers currently not closed: +1 on closed→open, -1 on
	// half-open→closed; open↔half-open transitions leave it alone.
	return &breaker{
		threshold: cfg.BreakerThreshold,
		cooldown:  cfg.BreakerCooldown,
		openedC:   reg.Counter("server_breaker_opened"),
		closedC:   reg.Counter("server_breaker_closed"),
		openG:     reg.Gauge("server_breaker_open"),
		jnl:       jnl,
	}
}

// admit decides how the breaker treats one incoming request. forced means the
// request must be served cache-only; probe marks the single half-open trial
// request whose outcome decides the breaker's fate (the caller must report it
// via observe even on error paths, or the breaker wedges half-open).
func (b *breaker) admit(now time.Time) (forced, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return false, false
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return true, false
		}
		b.setState(breakerHalfOpen)
		b.probing = true
		return false, true
	default: // half-open: one probe at a time
		if b.probing {
			return true, false
		}
		b.probing = true
		return false, true
	}
}

// observe reports a search outcome. Callers must only report requests that
// ran a real search (not cache hits, not forced cache-only answers), except
// that a probe must always be reported to release the probe slot.
func (b *breaker) observe(deadlineTrunc, probe bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if deadlineTrunc {
			b.openedAt = now
			b.openedC.Inc() // re-open; the gauge already counts this breaker
			b.setState(breakerOpen)
		} else {
			b.consec = 0
			b.closedC.Inc()
			b.openG.Add(-1)
			b.setState(breakerClosed)
		}
		return
	}
	if b.state != breakerClosed {
		// A non-probe search raced the breaker opening; its outcome is stale.
		return
	}
	if !deadlineTrunc {
		b.consec = 0
		return
	}
	b.consec++
	if b.consec >= b.threshold {
		b.openedAt = now
		b.openedC.Inc()
		b.openG.Add(1)
		b.setState(breakerOpen)
	}
}

// setState records the transition (callers hold mu and have already adjusted
// the counters the transition implies).
func (b *breaker) setState(to int64) {
	b.state = to
	b.jnl.Record(journal.KindBreaker, -1, to, int64(b.consec))
}

// snapshot returns the state for tests.
func (b *breaker) snapshot() (state int64, consec int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.consec
}

// controlLoop is the load controller goroutine: every SampleEvery it feeds
// the ladder the rewrite p99 over the tick (bucket-count deltas of the
// cumulative latency histogram, ranked by obs.CountsQuantile). It exits when
// ctrlStop closes.
func (s *Server) controlLoop() {
	defer close(s.ctrlDone)
	tick := time.NewTicker(s.cfg.Degradation.SampleEvery)
	defer tick.Stop()
	lat := s.cfg.Registry.Histogram("server_latency_rewrite")
	bounds := lat.Bounds()
	prev := lat.Counts()
	delta := make([]int64, len(prev))
	for {
		select {
		case <-s.ctrlStop:
			return
		case <-tick.C:
			cur := lat.Counts()
			for i := range cur {
				delta[i] = cur[i] - prev[i]
			}
			prev = cur
			s.lad.observe(obs.CountsQuantile(bounds, delta, 0.99))
		}
	}
}

// stopControl stops the controller goroutine (idempotent; no-op when
// degradation is disabled).
func (s *Server) stopControl() {
	if s.ctrlStop == nil {
		return
	}
	s.ctrlOnce.Do(func() { close(s.ctrlStop) })
	<-s.ctrlDone
}

// CurrentServiceLevel reports the ladder's level (LevelFull when degradation
// is disabled). Soak harnesses assert on it after load drops.
func (s *Server) CurrentServiceLevel() ServiceLevel {
	if s.lad == nil {
		return LevelFull
	}
	return s.lad.current()
}

// breakerFor returns the app's breaker, creating it on first use (nil when
// degradation is disabled).
func (s *Server) breakerFor(app string) *breaker {
	if s.lad == nil {
		return nil
	}
	s.brkMu.Lock()
	defer s.brkMu.Unlock()
	b, ok := s.breakers[app]
	if !ok {
		b = newBreaker(s.cfg.Degradation, s.cfg.Registry, s.cfg.Journal)
		s.breakers[app] = b
	}
	return b
}
