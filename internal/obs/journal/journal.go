// Package journal is the always-on flight recorder behind the metrics layer:
// a small ring of the two events no counter holds — anomalies, each with its
// reason, and the serving degradation ladder's level changes. Everything
// that happens at a rate has a counter instead: prover calls
// (pipeline.Stats, pipeline_prover_seconds), cache and memo lookups
// (rewrite_result_cache_*, pipeline_cache_*), fired fault points
// (fault_injected_<point>) and the rewrite search (rewrite.Stats, with
// rewrite.Provenance as its per-rule breakdown).
//
// Counters answer "how much"; the journal answers "when, and in what order"
// for the rare events that explain a run that went wrong. No hot path
// records here, so an event is a plain struct written under a mutex, and
// the ring overwrites its oldest event when full. The ring is rendered as
// JSONL on demand: process exit, a signal, or an anomaly hook.
package journal

import (
	"strings"
	"sync"
	"time"
)

// Kind is the event type.
type Kind uint8

// Event kinds.
const (
	// KindAnomaly: an instrumented subsystem flagged an anomaly; Reason says
	// what.
	KindAnomaly Kind = iota + 1
	// KindServiceLevel: the serving degradation ladder changed level from
	// From to To (0 full, 1 cache-only).
	KindServiceLevel
)

// String returns the snake_case kind name used in the JSONL dump.
func (k Kind) String() string {
	switch k {
	case KindAnomaly:
		return "anomaly"
	case KindServiceLevel:
		return "service_level"
	}
	return "unknown"
}

// Event is one journal entry. Seq is the number of events recorded before
// it, so gaps after a wrap are visible.
type Event struct {
	Seq      uint64
	T        time.Duration // since the journal's epoch (process-local)
	Kind     Kind
	From, To int    // KindServiceLevel
	Reason   string // KindAnomaly, cut to maxReasonBytes
}

// maxReasonBytes bounds the reason an anomaly event keeps, so the ring's
// heap is bounded (size × maxReasonBytes of reasons) however often a client
// triggers an anomaly. A handler panic's reason (message and goroutine
// stack) is ≈ 2–3 KB; the anomaly sink still receives the whole reason.
const maxReasonBytes = 4 << 10

// Journal is the flight recorder. Use New or the process-wide Default.
type Journal struct {
	mu    sync.Mutex
	ring  []Event
	next  uint64 // events ever recorded; the next goes to ring[next%len(ring)]
	epoch time.Time
	sink  func(reason string)
}

// DefaultSize is the Default journal's capacity. A size-2 discovery
// records no event, and a 30-s chaos soak 2–4 level changes and no anomaly.
// At the ladder's default settings a degrade-and-recover cycle takes at
// least 13 samples of 100 ms, so 256 events keep at least the last 2.5
// minutes of a flapping daemon. Empty, the ring is ≈ 14 KB; full of panic
// stacks, at most ≈ 1 MB.
const DefaultSize = 256

// New builds a journal that retains the last size events (at least 1).
func New(size int) *Journal {
	if size < 1 {
		size = 1
	}
	return &Journal{ring: make([]Event, size), epoch: time.Now()}
}

var defaultJournal = New(DefaultSize)

// Default returns the process-wide journal the instrumented packages record
// into. It is always on.
func Default() *Journal { return defaultJournal }

// record stamps ev and stores it over the oldest event, returning the
// anomaly sink to call once the lock is released.
func (j *Journal) record(ev Event) (sink func(reason string)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ev.Seq = j.next
	ev.T = time.Since(j.epoch)
	j.ring[j.next%uint64(len(j.ring))] = ev
	j.next++
	return j.sink
}

// ServiceLevel records a KindServiceLevel event.
func (j *Journal) ServiceLevel(from, to int) {
	j.record(Event{Kind: KindServiceLevel, From: from, To: to})
}

// Anomaly records a KindAnomaly event and invokes the registered sink with
// the whole reason. The event keeps a copy of at most maxReasonBytes of it.
func (j *Journal) Anomaly(reason string) {
	kept := reason
	if len(kept) > maxReasonBytes {
		// A copy, so the ring does not pin the caller's whole string.
		kept = strings.Clone(kept[:maxReasonBytes])
	}
	if sink := j.record(Event{Kind: KindAnomaly, Reason: kept}); sink != nil {
		sink(reason)
	}
}

// SetAnomalySink registers the hook Anomaly invokes (typically: dump the
// journal to a file). A nil sink just records the event.
func (j *Journal) SetAnomalySink(sink func(reason string)) {
	j.mu.Lock()
	j.sink = sink
	j.mu.Unlock()
}

// Written returns the number of events ever recorded, including those the
// ring has since overwritten.
func (j *Journal) Written() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Snapshot returns the retained events, oldest first.
func (j *Journal) Snapshot() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := uint64(len(j.ring))
	first := uint64(0)
	if j.next > n {
		first = j.next - n
	}
	out := make([]Event, 0, j.next-first)
	for seq := first; seq < j.next; seq++ {
		out = append(out, j.ring[seq%n])
	}
	return out
}
