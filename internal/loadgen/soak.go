package loadgen

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"wetune/internal/faultinject"
	"wetune/internal/obs"
	"wetune/internal/server"
	"wetune/internal/workload"
)

// FaultPhase arms one fault for a window of a run: Fault is set at offset At
// and cleared at At+Duration. Phases may overlap; each point's decision
// stream is independent (see faultinject).
type FaultPhase struct {
	At       time.Duration     `json:"at"`
	Duration time.Duration     `json:"duration"`
	Fault    faultinject.Fault `json:"fault"`
}

// DefaultSchedule is the standard chaos script over a run of length d: each
// serving-path fault point gets its own window, walking the inventory one
// failure mode at a time, with the last ~15% of the run clean so the
// degradation ladder's recovery can be asserted. ProverStall is excluded — it
// sits on the discovery pipeline, not the serving path (the chaos unit tests
// cover it in-process).
func DefaultSchedule(d time.Duration) []FaultPhase {
	frac := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	window := func(from, to float64) (time.Duration, time.Duration) {
		return frac(from), frac(to - from)
	}
	mk := func(from, to float64, f faultinject.Fault) FaultPhase {
		at, dur := window(from, to)
		return FaultPhase{At: at, Duration: dur, Fault: f}
	}
	return []FaultPhase{
		// A cold/contended cache shard: every lookup stalls 15ms, which
		// drags the rewrite p99 over the soak controller's hot threshold and
		// must step the ladder down.
		mk(0.10, 0.25, faultinject.Fault{Point: faultinject.CacheSlow, Rate: 1, Delay: 15 * time.Millisecond}),
		// A flushed shard: half the lookups miss; correctness must not
		// depend on the cache, only latency.
		mk(0.30, 0.40, faultinject.Fault{Point: faultinject.CacheFail, Rate: 0.5}),
		// Budget starvation: half the searches truncate to one expansion
		// and degrade to the best candidate seen.
		mk(0.45, 0.55, faultinject.Fault{Point: faultinject.SearchStarve, Rate: 0.5}),
		// Response-encode failures: injected 500s, marked with the
		// injected-fault header so the client excludes them from Errors.
		mk(0.60, 0.70, faultinject.Fault{Point: faultinject.EncodeError, Rate: 0.1}),
		// Handler panics: the recover path must isolate them to the request.
		mk(0.75, 0.85, faultinject.Fault{Point: faultinject.HandlerPanic, Rate: 0.05}),
	}
}

// PlaySchedule arms and clears the schedule's faults at their offsets
// (relative to the call) until every phase has ended or ctx is cancelled.
// It seeds the fault registry first and disarms everything on return.
// `wetune loadtest -chaos` and the soak harness both run it alongside a load
// generator.
func PlaySchedule(ctx context.Context, seed int64, phases []FaultPhase) {
	type event struct {
		at    time.Duration
		point faultinject.Point
		arm   *faultinject.Fault // nil = clear
	}
	var events []event
	for i := range phases {
		ph := phases[i]
		events = append(events,
			event{at: ph.At, point: ph.Fault.Point, arm: &ph.Fault},
			event{at: ph.At + ph.Duration, point: ph.Fault.Point})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	_ = faultinject.Configure(seed) // set the seed; nothing armed yet
	defer faultinject.Reset()
	start := time.Now()
	for _, ev := range events {
		wait := ev.at - time.Since(start)
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if ev.arm != nil {
			_ = faultinject.Set(*ev.arm)
		} else {
			faultinject.Clear(ev.point)
		}
	}
}

// SoakOptions configures RunSoak. The zero value is a valid short soak.
type SoakOptions struct {
	// Duration of the load phase (default 10s).
	Duration time.Duration
	// Concurrency of the load generator (default 2×GOMAXPROCS — enough to
	// queue behind the worker pool and exercise admission).
	Concurrency int
	// Seed drives fault decisions and client jitter (default 1).
	Seed int64
	// Schedule is the fault script (default DefaultSchedule(Duration); an
	// explicitly empty non-nil schedule soaks fault-free).
	Schedule []FaultPhase
	// Settle bounds the post-load wait for the ladder to recover to full
	// and the gauges to reach rest (default 5s).
	Settle time.Duration
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 2 * runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Schedule == nil {
		o.Schedule = DefaultSchedule(o.Duration)
	}
	if o.Settle <= 0 {
		o.Settle = 5 * time.Second
	}
	return o
}

// SoakReport is one chaos soak's outcome: the load report, the server-side
// ladder/fault tallies, and the list of violated invariants (empty = pass).
type SoakReport struct {
	Load           *Report          `json:"load"`
	Transitions    int64            `json:"level_transitions"`
	FinalLevel     string           `json:"final_level"`
	InjectedPanics int64            `json:"injected_panics,omitempty"`
	RealPanics     int64            `json:"real_panics,omitempty"`
	FaultsFired    map[string]int64 `json:"faults_fired,omitempty"`
	Violations     []string         `json:"violations,omitempty"`
}

// Passed reports whether every invariant held.
func (r *SoakReport) Passed() bool { return len(r.Violations) == 0 }

// Render returns the human-readable soak summary.
func (r *SoakReport) Render() string {
	var b strings.Builder
	b.WriteString(r.Load.Render())
	fmt.Fprintf(&b, "  ladder: %d transitions, final level %s\n", r.Transitions, r.FinalLevel)
	if len(r.FaultsFired) > 0 {
		pts := make([]string, 0, len(r.FaultsFired))
		for p := range r.FaultsFired {
			pts = append(pts, p)
		}
		sort.Strings(pts)
		b.WriteString("  faults fired:")
		for _, p := range pts {
			fmt.Fprintf(&b, " %s=%d", p, r.FaultsFired[p])
		}
		b.WriteString("\n")
	}
	if r.InjectedPanics > 0 || r.RealPanics > 0 {
		fmt.Fprintf(&b, "  panics: injected=%d real=%d\n", r.InjectedPanics, r.RealPanics)
	}
	if r.Passed() {
		b.WriteString("  invariants: PASS\n")
	} else {
		fmt.Fprintf(&b, "  invariants: FAIL (%d violations)\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "    - %s\n", v)
		}
	}
	return b.String()
}

// monotoneCounters are the counters the soak sampler asserts never decrease.
var monotoneCounters = []string{
	"server_responses_2xx", "server_responses_4xx", "server_responses_5xx",
	"server_admission_rejected", "server_level_transitions",
}

// RunSoak is the chaos soak harness: it builds an in-process server on a
// fresh metrics registry with an aggressive degradation config, plays the
// fault schedule while the closed-loop load generator (with pushback retries)
// drives the full rewrite corpus through it, then asserts the run's
// invariants:
//
//   - zero non-injected 5xx responses and zero transport errors — every
//     failure the clients saw traces to a scheduled fault;
//   - the degradation ladder stepped (when the schedule injects load-shaping
//     faults) and returned to "full" after the load stopped;
//   - monotone counters never went backwards mid-run;
//   - after drain, no stuck in-flight request or queue slot (both gauges at
//     zero) and Shutdown completed within its grace.
//
// Violations are reported, not fatal: the caller renders the report and exits
// nonzero on !Passed().
func RunSoak(ctx context.Context, opts SoakOptions) (*SoakReport, error) {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	schemas, _ := workload.RewriteCorpus(1)
	srv, err := server.New(server.Config{
		Schemas:        schemas,
		Workers:        runtime.GOMAXPROCS(0),
		RequestTimeout: 2 * time.Second,
		Registry:       reg,
		Degradation: server.DegradationConfig{
			// Aggressive thresholds so a short soak exercises the ladder:
			// sample fast, degrade after 2 hot ticks, call 5ms "hot" (the
			// corpus rewrites in µs; only injected stalls reach it).
			SampleEvery:  20 * time.Millisecond,
			DegradeAfter: 2,
			RecoverAfter: 5,
			HighP99:      5 * time.Millisecond,
			LowP99:       2 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}

	rep := &SoakReport{}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// Monotone sampler: 50ms snapshots of counters that must never decrease.
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		last := make(map[string]int64, len(monotoneCounters))
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-tick.C:
				for _, name := range monotoneCounters {
					v := reg.Counter(name).Value()
					if prev, ok := last[name]; ok && v < prev {
						violate("counter %s went backwards: %d -> %d", name, prev, v)
					}
					last[name] = v
				}
			}
		}
	}()

	// Fault tallies come from the always-on obs counters as before/after
	// deltas: the schedule player clears each point when its phase ends (and
	// disarms everything when it finishes, possibly before the load stops),
	// which discards the per-point registry state that faultinject.Fired
	// reads — the counters are the record that survives.
	firedBefore := map[faultinject.Point]int64{}
	for _, pt := range faultinject.Points() {
		firedBefore[pt] = obs.Default().Counter("fault_injected_" + string(pt)).Value()
	}

	// Chaos script alongside the load.
	schedCtx, schedCancel := context.WithCancel(ctx)
	schedDone := make(chan struct{})
	go func() {
		defer close(schedDone)
		PlaySchedule(schedCtx, opts.Seed, opts.Schedule)
	}()

	load, err := Run(ctx, Options{
		Handler:     srv.Handler(),
		Concurrency: opts.Concurrency,
		Duration:    opts.Duration,
		Timeout:     2 * time.Second,
		Retry:       RetryPolicy{MaxAttempts: 3},
		Seed:        opts.Seed,
	})

	rep.FaultsFired = map[string]int64{}
	for _, pt := range faultinject.Points() {
		if n := obs.Default().Counter("fault_injected_"+string(pt)).Value() - firedBefore[pt]; n > 0 {
			rep.FaultsFired[string(pt)] = n
		}
	}
	schedCancel()
	<-schedDone
	if err != nil {
		close(samplerStop)
		<-samplerDone
		return nil, err
	}
	rep.Load = load

	// Load has stopped and faults are cleared: the ladder must walk back to
	// full within the settle window.
	settleDeadline := time.Now().Add(opts.Settle)
	for srv.CurrentServiceLevel() != server.LevelFull && time.Now().Before(settleDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	rep.FinalLevel = srv.CurrentServiceLevel().String()
	rep.Transitions = reg.Counter("server_level_transitions").Value()
	rep.InjectedPanics = reg.Counter("server_injected_panics").Value()
	rep.RealPanics = reg.Counter("server_panics").Value()

	close(samplerStop)
	<-samplerDone

	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.Settle)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		violate("shutdown did not drain within %v: %v", opts.Settle, err)
	}

	// Invariants.
	if load.Errors > 0 {
		violate("%d non-injected errors (transport failures or unmarked 5xx)", load.Errors)
	}
	if rep.RealPanics > 0 {
		violate("%d real (non-injected) handler panics", rep.RealPanics)
	}
	if rep.FinalLevel != server.LevelFull.String() {
		violate("ladder did not recover: final level %s", rep.FinalLevel)
	}
	if len(opts.Schedule) > 0 && rep.Transitions < 2 {
		violate("ladder never stepped under chaos: %d transitions (want >= 2, a degrade and a recover)", rep.Transitions)
	}
	if len(opts.Schedule) > 0 && len(rep.FaultsFired) == 0 {
		violate("no faults fired — the schedule never armed against live traffic")
	}
	if v := reg.Gauge("server_inflight").Value(); v != 0 {
		violate("stuck in-flight requests after drain: server_inflight=%d", v)
	}
	if v := reg.Gauge("server_queue_depth").Value(); v != 0 {
		violate("stuck queue slots after drain: server_queue_depth=%d", v)
	}
	return rep, nil
}
