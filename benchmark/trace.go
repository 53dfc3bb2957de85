package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test carries no spans of its own yet). Spans of one
// operation share Op; Parent is the span that caused this one (0 = root).
type span struct {
	Op     int64  `json:"op_id"`
	ID     int64  `json:"span_id"`
	Parent int64  `json:"parent_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spansKept bounds the raw span log written by -trace-out; the per-layer
// numbers are aggregated from every span regardless.
const spansKept = 200_000

// tracer collects the spans of one goroutine: it aggregates duration and self
// time per span name as operations finish and keeps the first spansKept raw
// spans. Not safe for concurrent use — one tracer per client, merged at the
// end.
type tracer struct {
	base   time.Time
	nextOp int64
	nextID int64
	cur    []span
	kept   []span
	dur    map[string][]int64
	self   map[string][]int64
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, dur: map[string][]int64{}, self: map[string][]int64{}}
}

// begin opens a new operation; spans added until finish belong to it.
func (t *tracer) begin() {
	t.nextOp++
	t.cur = t.cur[:0]
}

// add records a span of the current operation and returns its id.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	t.nextID++
	t.cur = append(t.cur, span{
		Op: t.nextOp, ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
	return t.nextID
}

// reserve hands out a span id before the span's interval is known, so that
// children recorded while it runs can name it as their parent.
func (t *tracer) reserve() int64 {
	t.nextID++
	return t.nextID
}

// addReserved records the span whose id reserve returned.
func (t *tracer) addReserved(id int64, name string, start, end time.Time) {
	t.cur = append(t.cur, span{
		Op: t.nextOp, ID: id, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
}

// timed runs fn as a child span of parent.
func (t *tracer) timed(name string, parent int64, fn func()) int64 {
	start := time.Now()
	fn()
	return t.add(name, parent, start, time.Now())
}

// finish closes the current operation: self times are computed and folded
// into the per-name aggregates.
func (t *tracer) finish() {
	selfs := selfTimes(t.cur)
	for i, s := range t.cur {
		t.dur[s.Name] = append(t.dur[s.Name], s.End-s.Start)
		t.self[s.Name] = append(t.self[s.Name], selfs[i])
	}
	if room := spansKept - len(t.kept); room > 0 {
		t.kept = append(t.kept, t.cur[:min(room, len(t.cur))]...)
	}
}

// selfTimes returns, for each span, its duration minus the durations of its
// direct children. A staged replay runs the children after their parent
// returned rather than inside it, so children are subtracted by duration, not
// by overlap; a negative self time then means the replayed stages together
// took longer than the real call, which is reported as it is.
func selfTimes(spans []span) []int64 {
	index := make(map[int64]int, len(spans))
	out := make([]int64, len(spans))
	for i, s := range spans {
		index[s.ID] = i
		out[i] = s.End - s.Start
	}
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok {
			out[p] -= s.End - s.Start
		}
	}
	return out
}

// merge folds other tracers into t (aggregates concatenated, raw spans up to
// the cap).
func (t *tracer) merge(others ...*tracer) {
	for _, o := range others {
		for name, v := range o.dur {
			t.dur[name] = append(t.dur[name], v...)
		}
		for name, v := range o.self {
			t.self[name] = append(t.self[name], v...)
		}
		if room := spansKept - len(t.kept); room > 0 {
			t.kept = append(t.kept, o.kept[:min(room, len(o.kept))]...)
		}
	}
}

// medianDur and medianSelf are the per-call medians in nanoseconds.
func (t *tracer) medianDur(name string) float64  { return medianNS(t.dur[name]) }
func (t *tracer) medianSelf(name string) float64 { return medianNS(t.self[name]) }

// sumDur is the total time spent in spans of that name, in nanoseconds.
func (t *tracer) sumDur(name string) float64 {
	var s int64
	for _, d := range t.dur[name] {
		s += d
	}
	return float64(s)
}

// writeTrace stores the raw spans as DIR/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
