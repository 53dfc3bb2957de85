package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRecordAndSnapshotOrder(t *testing.T) {
	j := New(64)
	for i := 0; i < 10; i++ {
		j.Record(KindProver, 1, int64(i))
	}
	evs := j.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.B != int64(i) {
			t.Fatalf("event %d out of order: seq=%d b=%d", i, ev.Seq, ev.B)
		}
		if ev.Kind != KindProver {
			t.Fatalf("event %d kind = %v", i, ev.Kind)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	j := New(64) // rounded to 64 slots
	n := 200
	for i := 0; i < n; i++ {
		j.Record(KindCacheHit, CacheResult, int64(i))
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
				j.Record(KindFault, int64(w), int64(i))
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
					if ev.Kind != KindFault && ev.Kind != 0 {
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

func TestWriteJSONLDecodesPayloads(t *testing.T) {
	j := New(64)
	j.Record(KindProver, 1, 12345)
	j.Record(KindCacheMiss, CacheResult, 0)
	j.Record(KindCacheHit, CacheProof, 0)
	j.Record(KindServiceLevel, 0, 1)
	j.Record(KindFault, 3, 17)
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
	if len(lines) != 6 {
		t.Fatalf("got %d lines, want 6", len(lines))
	}
	if lines[0]["kind"] != "prover" || lines[0]["proved"] != true || lines[0]["dur_ns"] != float64(12345) {
		t.Fatalf("line 0 = %v", lines[0])
	}
	if lines[1]["kind"] != "cache_miss" || lines[1]["cache"] != "result" {
		t.Fatalf("line 1 = %v", lines[1])
	}
	if lines[2]["kind"] != "cache_hit" || lines[2]["cache"] != "proof" {
		t.Fatalf("line 2 = %v", lines[2])
	}
	if lines[3]["kind"] != "service_level" || lines[3]["from"] != float64(0) || lines[3]["to"] != float64(1) {
		t.Fatalf("line 3 = %v", lines[3])
	}
	if lines[4]["kind"] != "fault" || lines[4]["point"] != float64(3) || lines[4]["count"] != float64(17) {
		t.Fatalf("line 4 = %v", lines[4])
	}
	if lines[5]["kind"] != "anomaly" || lines[5]["anomaly"] != "prover disagreement" {
		t.Fatalf("line 5 = %v", lines[5])
	}
	for i, l := range lines {
		if _, ok := l["rule"]; ok {
			t.Fatalf("line %d carries a rule field: %v", i, l)
		}
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
	j.Record(KindCacheMiss, CacheProof, 0)
	j.Anomaly("boom")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("anomaly sink did not dump: %v", err)
	}
	if !bytes.Contains(data, []byte(`"anomaly":"boom"`)) {
		t.Fatalf("dump missing anomaly line:\n%s", data)
	}
	if !bytes.Contains(data, []byte(`"kind":"cache_miss"`)) {
		t.Fatalf("dump missing earlier event:\n%s", data)
	}
}

func TestCountByKind(t *testing.T) {
	j := New(64)
	j.Record(KindCacheMiss, CacheProof, 0)
	j.Record(KindCacheMiss, CacheResult, 0)
	j.Record(KindProver, 1, 10)
	got := j.CountByKind()
	if got["cache_miss"] != 2 || got["prover"] != 1 {
		t.Fatalf("CountByKind = %v", got)
	}
}

// TestAnomalyReasonsAreBounded: the reason table keeps only the latest
// anomalyReasonSlots reasons, so a stream of anomalies (each a handler
// panic's stack) cannot grow the heap; an evicted id resolves to "".
func TestAnomalyReasonsAreBounded(t *testing.T) {
	j := New(256) // the ring keeps every event; only the reason table evicts
	const n = 3*anomalyReasonSlots + 5
	stack := strings.Repeat("x", 1024)
	for i := 0; i < n; i++ {
		j.Anomaly(fmt.Sprintf("panic %d\n%s", i, stack))
	}
	retained := 0
	for _, r := range j.anomalyReasons {
		if r != "" {
			retained += len(r)
		}
	}
	if max := anomalyReasonSlots * (len(stack) + len("panic 999\n")); retained > max {
		t.Fatalf("reason table holds %d bytes after %d anomalies, bound %d", retained, n, max)
	}
	if got, want := j.AnomalyReason(n-1), fmt.Sprintf("panic %d\n%s", n-1, stack); got != want {
		t.Fatalf("newest reason resolves to %.20q, want %.20q", got, want)
	}
	if got := j.AnomalyReason(n - anomalyReasonSlots); !strings.HasPrefix(got, fmt.Sprintf("panic %d\n", n-anomalyReasonSlots)) {
		t.Fatalf("oldest retained reason resolves to %.20q", got)
	}
	for _, id := range []int64{0, n - anomalyReasonSlots - 1, n, -1} {
		if got := j.AnomalyReason(id); got != "" {
			t.Fatalf("evicted or unknown id %d resolves to %.20q, want \"\"", id, got)
		}
	}
	// The ring still holds every anomaly event; the dump renders those whose
	// reason was evicted without one.
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"anomaly":"panic`); got != anomalyReasonSlots {
		t.Fatalf("dump resolves %d anomaly reasons, want %d", got, anomalyReasonSlots)
	}
}

func BenchmarkRecord(b *testing.B) {
	j := New(DefaultSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Record(KindCacheHit, CacheResult, int64(i))
	}
}
