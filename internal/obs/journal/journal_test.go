package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestRecordAndSnapshotOrder(t *testing.T) {
	j := New(64)
	for i := 0; i < 10; i++ {
		j.Record(KindRuleAttempt, int32(i), PackPath([]int{i}), 0)
	}
	evs := j.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Rule != int32(i) {
			t.Fatalf("event %d out of order: seq=%d rule=%d", i, ev.Seq, ev.Rule)
		}
		if ev.Kind != KindRuleAttempt {
			t.Fatalf("event %d kind = %v", i, ev.Kind)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	j := New(64) // rounded to 64 slots
	n := 200
	for i := 0; i < n; i++ {
		j.Record(KindExpand, -1, int64(i), 0)
	}
	evs := j.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("retained %d events, want 64", len(evs))
	}
	if evs[0].Seq != uint64(n-64) || evs[len(evs)-1].Seq != uint64(n-1) {
		t.Fatalf("retained window [%d,%d], want [%d,%d]",
			evs[0].Seq, evs[len(evs)-1].Seq, n-64, n-1)
	}
	if j.Written() != uint64(n) {
		t.Fatalf("Written = %d, want %d", j.Written(), n)
	}
}

func TestConcurrentWritersAndReaders(t *testing.T) {
	j := New(1024)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 5000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Record(KindCandidate, int32(w), int64(i), int64(math.Float64bits(1.5)))
			}
		}(w)
	}
	// Concurrent snapshots must be race-clean and internally consistent.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, ev := range j.Snapshot() {
					if ev.Kind != KindCandidate && ev.Kind != 0 {
						t.Errorf("torn event: %+v", ev)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := j.Written(); got != writers*perWriter {
		t.Fatalf("Written = %d, want %d", got, writers*perWriter)
	}
	evs := j.Snapshot()
	if len(evs) != 1024 {
		t.Fatalf("retained %d, want full ring 1024", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not seq-ordered at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	j := New(64)
	j.SetEnabled(false)
	j.Record(KindExpand, -1, 1, 2)
	if len(j.Snapshot()) != 0 || j.Written() != 0 {
		t.Fatal("disabled journal recorded an event")
	}
	j.SetEnabled(true)
	j.Record(KindExpand, -1, 1, 2)
	if len(j.Snapshot()) != 1 {
		t.Fatal("re-enabled journal did not record")
	}
}

func TestPackPathRoundTrip(t *testing.T) {
	cases := [][]int{nil, {}, {0}, {1, 2, 3}, {0, 5, 0, 1, 2, 3, 4, 5, 6, 7}}
	for _, p := range cases {
		got := UnpackPath(PackPath(p))
		want := p
		if want == nil {
			want = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("PackPath(%v) round-tripped to %v", p, got)
		}
	}
	// Saturation: deep paths clamp to 10 steps, wide indexes to 63.
	deep := make([]int, 14)
	for i := range deep {
		deep[i] = 100
	}
	got := UnpackPath(PackPath(deep))
	if len(got) != 10 || got[0] != 63 || got[9] != 63 {
		t.Fatalf("saturated path = %v", got)
	}
}

func TestWriteJSONLDecodesPayloads(t *testing.T) {
	j := New(64)
	j.Record(KindRuleAttempt, 31, PackPath([]int{0, 1}), 0)
	j.Record(KindRulePruned, -1, PruneShape, 7)
	j.Record(KindCandidate, 4, 6, PackPath([]int{1, 0}))
	j.Record(KindTruncated, -1, TruncDeadline, 0)
	j.Record(KindProver, -1, 1, 12345)
	j.Record(KindCacheMiss, -1, CacheResult, 0)
	j.Anomaly("prover disagreement")

	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7", len(lines))
	}
	if lines[0]["kind"] != "rule_attempt" || lines[0]["rule"] != float64(31) {
		t.Fatalf("line 0 = %v", lines[0])
	}
	if lines[1]["reason"] != "shape" || lines[1]["count"] != float64(7) {
		t.Fatalf("line 1 = %v", lines[1])
	}
	if path, _ := lines[2]["path"].([]any); len(path) != 2 || path[0] != float64(1) || lines[2]["size"] != float64(6) {
		t.Fatalf("line 2 = %v", lines[2])
	}
	if lines[3]["budget"] != "deadline" {
		t.Fatalf("line 3 = %v", lines[3])
	}
	if lines[4]["proved"] != true || lines[4]["dur_ns"] != float64(12345) {
		t.Fatalf("line 4 = %v", lines[4])
	}
	if lines[5]["cache"] != "result" {
		t.Fatalf("line 5 = %v", lines[5])
	}
	if lines[6]["anomaly"] != "prover disagreement" {
		t.Fatalf("line 6 = %v", lines[6])
	}
}

func TestAnomalySinkAndDumpFile(t *testing.T) {
	j := New(64)
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	j.SetAnomalySink(func(reason string) {
		if err := j.DumpFile(path); err != nil {
			t.Error(err)
		}
	})
	j.Record(KindExpand, -1, 3, 0)
	j.Anomaly("boom")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("anomaly sink did not dump: %v", err)
	}
	if !bytes.Contains(data, []byte(`"anomaly":"boom"`)) {
		t.Fatalf("dump missing anomaly line:\n%s", data)
	}
	if !bytes.Contains(data, []byte(`"kind":"expand"`)) {
		t.Fatalf("dump missing earlier event:\n%s", data)
	}
}

func TestCountByKind(t *testing.T) {
	j := New(64)
	j.Record(KindExpand, -1, 0, 0)
	j.Record(KindExpand, -1, 0, 0)
	j.Record(KindMemoHit, 3, 0, 0)
	got := j.CountByKind()
	if got["expand"] != 2 || got["memo_hit"] != 1 {
		t.Fatalf("CountByKind = %v", got)
	}
}

func BenchmarkRecord(b *testing.B) {
	j := New(DefaultSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(KindExpand, -1, int64(i), 0)
	}
}
