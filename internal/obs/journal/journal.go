// Package journal is the always-on flight recorder behind the metrics layer:
// a fixed-size, lock-free ring buffer of typed events that no other record
// holds — prover outcomes and proof-cache hits and misses from the discovery
// pipeline, the optimizer's result- and plan-cache lookups, anomalies,
// serving-level changes and fired fault points. The rewrite search is not
// here: its record is rewrite.Stats, flushed to the rewrite_* counters, with
// rewrite.Provenance as its per-rule breakdown on request.
//
// Counters answer "how much"; the journal answers "what happened just before
// this run went wrong" without re-running anything. It is designed to stay on
// in production: recording one event is a handful of uncontended atomic
// stores on fixed-size slots (no allocation, no locks, no formatting), and
// the ring simply overwrites the oldest events, so the recorder's cost is
// independent of run length. The buffer is rendered as JSONL on demand —
// process exit, a signal, or an anomaly hook.
//
// Concurrency: writers claim a slot with a CAS on the slot's sequence word
// and publish with an atomic store; every event field is its own atomic, so
// recording and snapshotting race-cleanly from any number of goroutines. A
// writer that wraps onto a slot still being written (ring far too small for
// the event rate) drops the event and counts it in Dropped — the recorder
// never blocks a hot path.
package journal

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the event type. The payload fields A and B are kind-specific; see
// the constants below and Event.Fields for the decoding.
type Kind uint8

// Event kinds recorded by the instrumented subsystems.
const (
	// KindProver: one prover call completed. A = verdict (1 = proved),
	// B = duration in nanoseconds.
	KindProver Kind = iota + 1
	// KindCacheHit / KindCacheMiss: a cache lookup. A = cache identity
	// (CacheProof, CacheResult or CachePlan).
	KindCacheHit
	KindCacheMiss
	// KindAnomaly: an instrumented subsystem flagged an anomaly.
	// A = id of the reason in the journal's anomaly-reason table.
	KindAnomaly
	// KindServiceLevel: the serving degradation ladder changed level.
	// A = level stepped from, B = level stepped to (0 full, 1 cache-only).
	KindServiceLevel
	// KindFault: a fault-injection point fired. A = the point's index in
	// faultinject.Points(), B = the point's decision counter at the fire.
	KindFault
)

// String returns the snake_case kind name used in the JSONL dump.
func (k Kind) String() string {
	switch k {
	case KindProver:
		return "prover"
	case KindCacheHit:
		return "cache_hit"
	case KindCacheMiss:
		return "cache_miss"
	case KindAnomaly:
		return "anomaly"
	case KindServiceLevel:
		return "service_level"
	case KindFault:
		return "fault"
	}
	return "unknown"
}

// Cache identities (KindCacheHit/KindCacheMiss.A).
const (
	CacheProof  int64 = iota // pipeline proof cache (verifier verdicts)
	CacheResult              // optimizer query→result cache
	CachePlan                // optimizer normalized-SQL→parsed-plan cache
)

// Event is one decoded journal entry. Seq orders events globally (it is the
// ring's running write position, so gaps after a wrap are visible).
type Event struct {
	Seq  uint64
	T    time.Duration // since the journal's epoch (process-local)
	Kind Kind
	A, B int64 // kind-specific payload
}

// slot is one ring entry. seq holds 2*(pos+1) once the event at write
// position pos is published, and an odd value while a writer owns the slot;
// readers detect torn reads by re-checking seq. Every field is atomic so the
// race detector sees only synchronized access.
type slot struct {
	seq  atomic.Uint64
	kind atomic.Int64
	t    atomic.Int64
	a    atomic.Int64
	b    atomic.Int64
}

// anomalyReasonSlots bounds the anomaly-reason table: the journal keeps the
// reasons of the latest anomalies only, so a client that keeps triggering one
// (a handler panic stores its stack) cannot grow the process's heap.
const anomalyReasonSlots = 64

// Journal is the flight recorder. Use New or the process-wide Default.
type Journal struct {
	slots   []slot
	mask    uint64
	head    atomic.Uint64
	dropped atomic.Int64
	epoch   time.Time

	anomalyMu sync.Mutex
	// anomalyReasons holds the reason of anomaly id at id%anomalyReasonSlots;
	// anomalyNext is the next id.
	anomalyReasons [anomalyReasonSlots]string
	anomalyNext    int64
	anomalySink    func(reason string)
}

// DefaultSize is the Default journal's slot count: at ~40 bytes per slot the
// resident cost is ~1.3 MB. Each cache lookup, prover call, anomaly, level
// change or fired fault is one event, so the ring holds the last ≈32,000 of
// them — a served query costs at most one (its result-cache lookup), a
// discovery prover call two (its proof-cache miss and its verdict).
const DefaultSize = 1 << 15

// New builds a journal with capacity rounded up to a power of two (minimum
// 64 slots).
func New(size int) *Journal {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Journal{slots: make([]slot, n), mask: uint64(n - 1), epoch: time.Now()}
}

var defaultJournal = New(DefaultSize)

// Default returns the process-wide journal the instrumented packages record
// into. It is always on.
func Default() *Journal { return defaultJournal }

// Record appends one event. It never blocks: a writer landing on a slot that
// another writer still owns (the ring wrapped a full lap mid-write) drops the
// event and counts it in Dropped.
func (j *Journal) Record(kind Kind, a, b int64) {
	if j == nil {
		return
	}
	pos := j.head.Add(1) - 1
	s := &j.slots[pos&j.mask]
	for {
		cur := s.seq.Load()
		if cur&1 != 0 {
			j.dropped.Add(1)
			return
		}
		if s.seq.CompareAndSwap(cur, cur|1) {
			break
		}
	}
	s.kind.Store(int64(kind))
	s.t.Store(int64(time.Since(j.epoch)))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store((pos + 1) << 1)
}

// Written returns the total number of events ever recorded (including those
// the ring has since overwritten); Dropped the events lost to slot
// contention. Written-minus-retained is the overwrite count.
func (j *Journal) Written() uint64 { return j.head.Load() }

// Dropped returns the events lost because a wrapped writer found the slot
// still owned.
func (j *Journal) Dropped() int64 { return j.dropped.Load() }

// Snapshot returns the retained events in write order. Slots mid-write are
// skipped (they will appear in a later snapshot); the result is a consistent
// sample, not an atomic cut, which is what a flight recorder needs.
func (j *Journal) Snapshot() []Event {
	out := make([]Event, 0, len(j.slots))
	for i := range j.slots {
		s := &j.slots[i]
		s1 := s.seq.Load()
		if s1 == 0 || s1&1 != 0 {
			continue
		}
		kind := s.kind.Load()
		t := s.t.Load()
		a := s.a.Load()
		b := s.b.Load()
		if s.seq.Load() != s1 {
			continue // overwritten mid-read; the new value shows up next time
		}
		out = append(out, Event{
			Seq:  s1>>1 - 1,
			T:    time.Duration(t),
			Kind: Kind(kind),
			A:    a,
			B:    b,
		})
	}
	sortEvents(out)
	return out
}

// sortEvents orders by sequence (insertion sort is fine: slots are already
// nearly ordered, one rotation per ring lap).
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for k := i; k > 0 && evs[k].Seq < evs[k-1].Seq; k-- {
			evs[k], evs[k-1] = evs[k-1], evs[k]
		}
	}
}

// SetAnomalySink registers the hook Anomaly invokes (typically: dump the
// journal to a file). Calls are serialized; a nil sink just records the
// event.
func (j *Journal) SetAnomalySink(sink func(reason string)) {
	j.anomalyMu.Lock()
	j.anomalySink = sink
	j.anomalyMu.Unlock()
}

// Anomaly records a KindAnomaly event and invokes the registered sink with
// the reason. The reason string is kept in a fixed side table of the latest
// anomalyReasonSlots reasons (the ring itself stores only its id), so the
// hot path's fixed-size slots are undisturbed and the table's size is
// bounded.
func (j *Journal) Anomaly(reason string) {
	j.anomalyMu.Lock()
	id := j.anomalyNext
	j.anomalyNext++
	j.anomalyReasons[id%anomalyReasonSlots] = reason
	sink := j.anomalySink
	j.anomalyMu.Unlock()
	j.Record(KindAnomaly, id, 0)
	if sink != nil {
		sink(reason)
	}
}

// AnomalyReason resolves a KindAnomaly event's A payload; it returns "" for
// an id the table has since evicted.
func (j *Journal) AnomalyReason(id int64) string {
	j.anomalyMu.Lock()
	defer j.anomalyMu.Unlock()
	if id < 0 || id >= j.anomalyNext || id < j.anomalyNext-anomalyReasonSlots {
		return ""
	}
	return j.anomalyReasons[id%anomalyReasonSlots]
}
