package server

import (
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
	// Disabled turns the controller off.
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
