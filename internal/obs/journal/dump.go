package journal

import (
	"encoding/json"
	"io"
	"os"
)

// line is the JSONL rendering of one event.
type line struct {
	Seq     uint64 `json:"seq"`
	TNS     int64  `json:"t_ns"`
	Kind    string `json:"kind"`
	Anomaly string `json:"anomaly,omitempty"`
	From    *int   `json:"from,omitempty"`
	To      *int   `json:"to,omitempty"`
}

// render converts ev into its JSONL line.
func render(ev Event) line {
	l := line{Seq: ev.Seq, TNS: int64(ev.T), Kind: ev.Kind.String()}
	switch ev.Kind {
	case KindAnomaly:
		l.Anomaly = ev.Reason
	case KindServiceLevel:
		l.From = &ev.From
		l.To = &ev.To
	}
	return l
}

// WriteJSONL renders the retained events, oldest first, one JSON object per
// line.
func (j *Journal) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range j.Snapshot() {
		if err := enc.Encode(render(ev)); err != nil {
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
