package journal

import (
	"encoding/json"
	"io"
	"os"
)

// line is the JSONL rendering of one event. Kind-specific payloads are
// decoded into named fields so the dump reads without the packing table.
type line struct {
	Seq  uint64 `json:"seq"`
	TNS  int64  `json:"t_ns"`
	Kind string `json:"kind"`
	Rule *int32 `json:"rule,omitempty"`

	Path    []int  `json:"path,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Count   *int64 `json:"count,omitempty"`
	Size    *int64 `json:"size,omitempty"`
	Depth   *int64 `json:"depth,omitempty"`
	Budget  string `json:"budget,omitempty"`
	Proved  *bool  `json:"proved,omitempty"`
	DurNS   *int64 `json:"dur_ns,omitempty"`
	Cache   string `json:"cache,omitempty"`
	Anomaly string `json:"anomaly,omitempty"`
	From    *int64 `json:"from,omitempty"`
	To      *int64 `json:"to,omitempty"`
	Point   *int64 `json:"point,omitempty"`
}

func pruneReason(a int64) string {
	if a == PruneShape {
		return "shape"
	}
	return "index"
}

func budgetName(a int64) string {
	switch a {
	case TruncSteps:
		return "steps"
	case TruncDeadline:
		return "deadline"
	}
	return "unknown"
}

func cacheName(a int64) string {
	switch a {
	case CacheResult:
		return "result"
	case CachePlan:
		return "plan"
	}
	return "proof"
}

// render decodes ev into its JSONL line.
func (j *Journal) render(ev Event) line {
	l := line{Seq: ev.Seq, TNS: int64(ev.T), Kind: ev.Kind.String()}
	if ev.Rule >= 0 {
		r := ev.Rule
		l.Rule = &r
	}
	switch ev.Kind {
	case KindRuleAttempt, KindRuleMatch, KindMemoHit:
		l.Path = UnpackPath(ev.A)
	case KindRulePruned:
		l.Reason = pruneReason(ev.A)
		l.Count = &ev.B
	case KindCandidate:
		l.Size = &ev.A
		l.Path = UnpackPath(ev.B)
	case KindExpand:
		l.Count = &ev.A
		l.Depth = &ev.B
	case KindTruncated:
		l.Budget = budgetName(ev.A)
	case KindProver:
		p := ev.A == 1
		l.Proved = &p
		l.DurNS = &ev.B
	case KindCacheHit, KindCacheMiss:
		l.Cache = cacheName(ev.A)
	case KindAnomaly:
		l.Anomaly = j.AnomalyReason(ev.A)
	case KindBatchItem:
		l.DurNS = &ev.A
		l.Count = &ev.B
	case KindServiceLevel:
		l.From = &ev.A
		l.To = &ev.B
	case KindFault:
		l.Point = &ev.A
		l.Count = &ev.B
	}
	return l
}

// WriteJSONL renders the retained events, oldest first, one JSON object per
// line.
func (j *Journal) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range j.Snapshot() {
		if err := enc.Encode(j.render(ev)); err != nil {
			return err
		}
	}
	return nil
}

// DumpFile writes the journal as JSONL to path (the exit/signal/anomaly
// sink).
func (j *Journal) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := j.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CountByKind tallies the retained events per kind (used by the rule
// analytics report and tests).
func (j *Journal) CountByKind() map[string]int {
	out := map[string]int{}
	for _, ev := range j.Snapshot() {
		out[ev.Kind.String()]++
	}
	return out
}
