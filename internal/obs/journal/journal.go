// Package journal is the always-on flight recorder behind the metrics layer:
// a fixed-size, lock-free ring buffer of typed events recorded from the
// rewrite search (rule attempted/matched/pruned-with-reason, new candidates,
// states expanded, memo hits, budget truncation), the optimizer result
// cache, and the discovery pipeline's per-pair prover loop (prover outcome,
// proof-cache hit/miss).
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
	// KindRuleAttempt: a full matcher invocation. Rule = rule number,
	// A = packed node path (see PackPath).
	KindRuleAttempt Kind = iota + 1
	// KindRuleMatch: the matcher bound and validated. Rule, A = packed path.
	KindRuleMatch
	// KindRulePruned: rules skipped before matching at one plan position.
	// A = reason (PruneIndex or PruneShape), B = number of rules pruned.
	KindRulePruned
	// KindCandidate: a derived plan entered the search's visited memo.
	// Rule, A = plan size, B = packed path.
	KindCandidate
	// KindExpand: one search state was expanded. A = candidates produced,
	// B = state depth.
	KindExpand
	// KindMemoHit: a derived plan was already in the visited memo.
	// Rule, A = packed path.
	KindMemoHit
	// KindTruncated: a search budget cut the search. A = budget
	// (TruncSteps or TruncDeadline).
	KindTruncated
	// KindProver: one prover call completed. A = verdict (1 = proved),
	// B = duration in nanoseconds.
	KindProver
	// KindCacheHit / KindCacheMiss: a cache lookup. A = cache identity
	// (CacheProof, CacheResult or CachePlan).
	KindCacheHit
	KindCacheMiss
	// KindAnomaly: an instrumented subsystem flagged an anomaly.
	// A = index into the journal's anomaly-reason table.
	KindAnomaly
	// KindBatchItem: one item of a batch rewrite request got a worker.
	// A = queue wait in nanoseconds (admission to worker token), B = item
	// index within the batch.
	KindBatchItem
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
	case KindRuleAttempt:
		return "rule_attempt"
	case KindRuleMatch:
		return "rule_match"
	case KindRulePruned:
		return "rule_pruned"
	case KindCandidate:
		return "candidate"
	case KindExpand:
		return "expand"
	case KindMemoHit:
		return "memo_hit"
	case KindTruncated:
		return "truncated"
	case KindProver:
		return "prover"
	case KindCacheHit:
		return "cache_hit"
	case KindCacheMiss:
		return "cache_miss"
	case KindAnomaly:
		return "anomaly"
	case KindBatchItem:
		return "batch_item"
	case KindServiceLevel:
		return "service_level"
	case KindFault:
		return "fault"
	}
	return "unknown"
}

// Prune reasons (KindRulePruned.A).
const (
	PruneIndex int64 = iota // root-kind bucket ruled the rules out
	PruneShape              // ops-only shape precheck failed
)

// Truncation budgets (KindTruncated.A), matching rewrite.Stats.TruncatedBy.
const (
	TruncSteps int64 = iota
	TruncDeadline
)

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
	Rule int32 // rule number, or -1 when not rule-specific
	A, B int64 // kind-specific payload
}

// slot is one ring entry. seq holds 2*(pos+1) once the event at write
// position pos is published, and an odd value while a writer owns the slot;
// readers detect torn reads by re-checking seq. Every field is atomic so the
// race detector sees only synchronized access.
type slot struct {
	seq atomic.Uint64
	kr  atomic.Int64 // kind in the low 8 bits, rule<<8
	t   atomic.Int64
	a   atomic.Int64
	b   atomic.Int64
}

// Journal is the flight recorder. Use New or the process-wide Default.
type Journal struct {
	slots   []slot
	mask    uint64
	head    atomic.Uint64
	dropped atomic.Int64
	off     atomic.Bool
	epoch   time.Time

	anomalyMu      sync.Mutex
	anomalyReasons []string
	anomalySink    func(reason string)
}

// DefaultSize is the Default journal's slot count: at ~40 bytes per slot the
// resident cost is ~1.3 MB, and at the rewrite engine's event rate (a few
// events per query) it holds the trail of the last several thousand queries.
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
// into. It is always on; SetEnabled(false) turns recording off for
// micro-benchmarks that need the last half-percent.
func Default() *Journal { return defaultJournal }

// SetEnabled switches recording on or off. The journal ships enabled.
func (j *Journal) SetEnabled(on bool) { j.off.Store(!on) }

// Enabled reports whether recording is on.
func (j *Journal) Enabled() bool { return !j.off.Load() }

// Record appends one event. It never blocks: a writer landing on a slot that
// another writer still owns (the ring wrapped a full lap mid-write) drops the
// event and counts it in Dropped.
func (j *Journal) Record(kind Kind, rule int32, a, b int64) {
	if j == nil || j.off.Load() {
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
	s.kr.Store(int64(kind) | int64(rule)<<8)
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
		kr := s.kr.Load()
		t := s.t.Load()
		a := s.a.Load()
		b := s.b.Load()
		if s.seq.Load() != s1 {
			continue // overwritten mid-read; the new value shows up next time
		}
		out = append(out, Event{
			Seq:  s1>>1 - 1,
			T:    time.Duration(t),
			Kind: Kind(kr & 0xff),
			Rule: int32(kr >> 8),
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
// the reason. The reason string is kept in a side table (the ring itself
// stores only its index), so the hot path's fixed-size slots are undisturbed.
func (j *Journal) Anomaly(reason string) {
	j.anomalyMu.Lock()
	id := int64(len(j.anomalyReasons))
	j.anomalyReasons = append(j.anomalyReasons, reason)
	sink := j.anomalySink
	j.anomalyMu.Unlock()
	j.Record(KindAnomaly, -1, id, 0)
	if sink != nil {
		sink(reason)
	}
}

// AnomalyReason resolves a KindAnomaly event's A payload.
func (j *Journal) AnomalyReason(id int64) string {
	j.anomalyMu.Lock()
	defer j.anomalyMu.Unlock()
	if id < 0 || id >= int64(len(j.anomalyReasons)) {
		return ""
	}
	return j.anomalyReasons[id]
}

// PackPath packs a root-to-node child-index path into an int64 for the
// fixed-width A payload: 6 bits per step, 10 steps, length in the top bits.
// Deeper or wider paths saturate (the flight recorder trades exactness at
// pathological depth for a fixed slot size); UnpackPath reverses it.
func PackPath(path []int) int64 {
	n := len(path)
	if n > 10 {
		n = 10
	}
	v := int64(n)
	for i := 0; i < n; i++ {
		c := path[i]
		if c > 63 {
			c = 63
		}
		v |= int64(c) << uint(4+6*i)
	}
	return v
}

// UnpackPath decodes a PackPath payload.
func UnpackPath(v int64) []int {
	n := int(v & 0xf)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = int(v >> uint(4+6*i) & 0x3f)
	}
	return out
}
