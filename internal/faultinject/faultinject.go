// Package faultinject is the repository's deterministic fault-injection
// layer: a small registry of named fault points threaded through the rewrite
// and serving hot paths (prover stall, search-budget starvation, slow or
// failing cache shards, response-encode failure, injected handler panic)
// that chaos tests and `wetune soak` arm at runtime.
//
// Design constraints, in order:
//
//  1. Free when disarmed. Every fault point compiles down to one atomic
//     load on the hot path while no fault is configured — the disarmed
//     branch allocates nothing, takes no locks and touches one cache line,
//     so the points can stay compiled into production binaries.
//  2. Deterministic. Decisions are driven by a seed and a per-point call
//     counter through SplitMix64, never by math/rand or the clock: the same
//     seed and the same per-point decision sequence fire the same faults.
//     (Under concurrency the interleaving of *which request* draws decision
//     n is scheduling-dependent, but the decision sequence itself — fire or
//     not, per point, per call index — is a pure function of the seed.)
//  3. One registry. All points live behind the package-level registry so a
//     soak harness can arm, re-arm and clear phases without threading a
//     handle through every layer; configuration is copy-on-write behind an
//     atomic pointer, so arming mid-run is race-free against hot-path reads.
//
// Every fired fault is counted (obs counter "fault_injected_<point>") and
// recorded in the flight recorder (journal.KindFault), so a chaos run's
// injected damage is auditable after the fact.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wetune/internal/obs"
	"wetune/internal/obs/journal"
)

// Point names one registered fault point. The inventory is fixed at compile
// time (see Points); arming an unknown point is a configuration error.
type Point string

// The fault-point inventory. Each constant documents where the point is
// threaded and what firing does there.
const (
	// ProverStall sleeps inside the discovery pipeline's prover call
	// (pipeline/relax.go), modeling an SMT solver that wedges on one query.
	ProverStall Point = "prover_stall"
	// SearchStarve collapses the rewrite search's step budget to 1 for the
	// affected call (rewrite/search.go), modeling budget starvation: the
	// search truncates after one step and degrades to the best plan seen.
	SearchStarve Point = "search_starve"
	// CacheSlow sleeps inside a cache-shard lookup (rewrite/cache.go),
	// modeling a cold or contended shard; it affects both serving cache
	// tiers (result and plan).
	CacheSlow Point = "cache_slow"
	// CacheFail forces a cache-shard lookup to miss (rewrite/cache.go),
	// modeling a flushed or corrupted shard; the miss is counted like a
	// real one so cache traffic stays monotone.
	CacheFail Point = "cache_fail"
	// EncodeError fails a successful HTTP response's JSON encoding
	// (server/errors.go): the request answers 500 with the injected-fault
	// header instead of its 2xx body.
	EncodeError Point = "encode_error"
	// HandlerPanic panics inside the server's rewrite execution path with
	// an Injected value; the server's recover isolates it to the request
	// (500 + injected-fault header, process survives).
	HandlerPanic Point = "panic"
)

// Points returns the full fault-point inventory, in a fixed order. Chaos
// tests iterate this to prove every registered point can fire and is
// survivable.
func Points() []Point {
	return []Point{ProverStall, SearchStarve, CacheSlow, CacheFail, EncodeError, HandlerPanic}
}

// index returns the point's position in Points (the journal payload), or -1.
func index(p Point) int64 {
	for i, q := range Points() {
		if q == p {
			return int64(i)
		}
	}
	return -1
}

// PointAt resolves a journal.KindFault payload back to its Point ("" when
// out of range).
func PointAt(i int64) Point {
	pts := Points()
	if i < 0 || i >= int64(len(pts)) {
		return ""
	}
	return pts[i]
}

// Injected is the panic value raised by MaybePanic: the server's recover
// path uses the type to tell an injected panic (counted, headered, no
// anomaly) from a real one (anomaly + journal dump).
type Injected struct{ Point Point }

func (i Injected) Error() string { return fmt.Sprintf("faultinject: injected %s", i.Point) }

// Fault arms one point: Rate is the per-decision fire probability in [0, 1]
// and Delay the stall duration for sleep-type points (ProverStall,
// CacheSlow; ignored elsewhere).
type Fault struct {
	Point Point         `json:"point"`
	Rate  float64       `json:"rate"`
	Delay time.Duration `json:"delay,omitempty"`
}

// pointState is one armed point's immutable config plus its mutable decision
// counter. The counter survives re-arming of *other* points (plan rebuilds
// carry states over), so a phase schedule doesn't reset unrelated streams.
type pointState struct {
	threshold uint64 // fire when splitmix64(...)>>11 < threshold (53-bit space)
	delay     time.Duration
	calls     atomic.Uint64 // decision index = PRNG stream position
	fired     atomic.Int64
	firedC    *obs.Counter
	idx       int64
}

// plan is the armed configuration, replaced wholesale on every change.
type plan struct {
	seed   uint64
	points map[Point]*pointState
}

var (
	armed  atomic.Bool // hot-path gate: false ⇒ every point is a no-op
	active atomic.Pointer[plan]

	mu       sync.Mutex // serializes Configure/Set/Clear/Reset
	planSeed uint64     // seed of the current plan, kept across Set/Clear
)

// splitmix64 is the decision PRNG: a stateless mix of (seed, point, call
// index) into 64 uniform bits. Public-domain constant schedule (Vigna).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// threshold53 maps a probability to the 53-bit comparison space.
func threshold53(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return 1 << 53
	}
	return uint64(rate * (1 << 53))
}

// Configure arms the registry with a seed and a set of faults, replacing any
// prior configuration. An empty fault set disarms (equivalent to Reset).
func Configure(seed int64, faults ...Fault) error {
	mu.Lock()
	defer mu.Unlock()
	planSeed = uint64(seed)
	p := &plan{seed: planSeed, points: map[Point]*pointState{}}
	for _, f := range faults {
		st, err := newState(f)
		if err != nil {
			return err
		}
		p.points[f.Point] = st
	}
	publish(p)
	return nil
}

// Set arms or re-arms one point, keeping every other armed point (and its
// decision stream position) intact. The seed is the one given to the last
// Configure (0 if none).
func Set(f Fault) error {
	mu.Lock()
	defer mu.Unlock()
	st, err := newState(f)
	if err != nil {
		return err
	}
	p := clonePlan()
	if old := p.points[f.Point]; old != nil {
		// Continue the decision stream; only the config changes.
		st.calls.Store(old.calls.Load())
		st.fired.Store(old.fired.Load())
	}
	p.points[f.Point] = st
	publish(p)
	return nil
}

// Clear disarms one point, keeping the rest.
func Clear(pt Point) {
	mu.Lock()
	defer mu.Unlock()
	p := clonePlan()
	delete(p.points, pt)
	publish(p)
}

// Reset disarms every point. Tests that arm faults must defer Reset.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	publish(&plan{seed: planSeed, points: map[Point]*pointState{}})
}

// Armed reports whether any fault point is configured. Hot paths with
// multi-step fault logic may gate on this to keep the disarmed cost at one
// atomic load.
func Armed() bool { return armed.Load() }

// newState validates one Fault and builds its state.
func newState(f Fault) (*pointState, error) {
	idx := index(f.Point)
	if idx < 0 {
		return nil, fmt.Errorf("faultinject: unknown point %q", f.Point)
	}
	if f.Rate < 0 || f.Rate > 1 {
		return nil, fmt.Errorf("faultinject: point %q rate %v outside [0, 1]", f.Point, f.Rate)
	}
	return &pointState{
		threshold: threshold53(f.Rate),
		delay:     f.Delay,
		firedC:    obs.Default().Counter("fault_injected_" + string(f.Point)),
		idx:       idx,
	}, nil
}

// clonePlan copies the active plan's point map (states are shared, so
// decision counters carry over). Callers hold mu.
func clonePlan() *plan {
	p := &plan{seed: planSeed, points: map[Point]*pointState{}}
	if cur := active.Load(); cur != nil {
		for k, v := range cur.points {
			p.points[k] = v
		}
	}
	return p
}

// publish swaps in the new plan and maintains the hot-path gate. Callers
// hold mu.
func publish(p *plan) {
	active.Store(p)
	armed.Store(len(p.points) > 0)
}

// decide draws the next decision for an armed point.
func (st *pointState) decide(seed uint64) bool {
	n := st.calls.Add(1)
	// Mix the point identity in through its inventory index so points share
	// a seed without sharing a stream.
	r := splitmix64(seed ^ uint64(st.idx)*0xa076_1d64_78bd_642f ^ n)
	if r>>11 >= st.threshold {
		return false
	}
	st.fired.Add(1)
	st.firedC.Inc()
	journal.Default().Record(journal.KindFault, -1, st.idx, int64(n))
	return true
}

// lookup resolves an armed point (nil when disarmed or not configured).
func lookup(pt Point) (*pointState, uint64) {
	if !armed.Load() {
		return nil, 0
	}
	p := active.Load()
	if p == nil {
		return nil, 0
	}
	return p.points[pt], p.seed
}

// Fire draws one decision for pt: true means the fault fires now. Disarmed
// or unconfigured points never fire, at the cost of a single atomic load.
func Fire(pt Point) bool {
	st, seed := lookup(pt)
	return st != nil && st.decide(seed)
}

// Stall sleeps the configured delay for pt when the point fires. The sleep
// happens outside any lock the caller is expected to hold — callers must
// invoke it before taking shard or state locks.
func Stall(pt Point) {
	st, seed := lookup(pt)
	if st != nil && st.delay > 0 && st.decide(seed) {
		time.Sleep(st.delay)
	}
}

// MaybePanic panics with an Injected value when pt fires. The server's
// panic isolation recognizes the type and answers 500 with the
// injected-fault header instead of recording an anomaly.
func MaybePanic(pt Point) {
	if Fire(pt) {
		panic(Injected{Point: pt})
	}
}

// Fired returns how many times pt has fired since it was (last) configured.
func Fired(pt Point) int64 {
	st, _ := lookup(pt)
	if st == nil {
		return 0
	}
	return st.fired.Load()
}
