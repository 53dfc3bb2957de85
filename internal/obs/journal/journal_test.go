package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestRecordAndSnapshotOrder(t *testing.T) {
	j := New(64)
	for i := 0; i < 10; i++ {
		j.ServiceLevel(i, i+1)
	}
	evs := j.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.From != i || ev.To != i+1 {
			t.Fatalf("event %d out of order: %+v", i, ev)
		}
		if ev.Kind != KindServiceLevel {
			t.Fatalf("event %d kind = %v", i, ev.Kind)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	j := New(50)
	n := 200
	for i := 0; i < n; i++ {
		j.ServiceLevel(0, i)
	}
	evs := j.Snapshot()
	if len(evs) != 50 {
		t.Fatalf("retained %d events, want 50", len(evs))
	}
	for i, ev := range evs {
		if want := n - 50 + i; ev.Seq != uint64(want) || ev.To != want {
			t.Fatalf("retained event %d = %+v, want seq %d", i, ev, want)
		}
	}
	if j.Written() != uint64(n) {
		t.Fatalf("Written = %d, want %d", j.Written(), n)
	}
}

// TestConcurrentWritersAndReaders: writers of both kinds and readers share
// the ring race-cleanly (run under -race), every event is counted, and a
// snapshot is a contiguous, seq-ordered window of whole events.
func TestConcurrentWritersAndReaders(t *testing.T) {
	j := New(1024)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 5000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%2 == 0 {
					j.ServiceLevel(w, i)
				} else {
					j.Anomaly(fmt.Sprintf("writer %d event %d", w, i))
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				evs := j.Snapshot()
				for k, ev := range evs {
					if k > 0 && ev.Seq != evs[k-1].Seq+1 {
						t.Errorf("snapshot not contiguous at %d: %d then %d", k, evs[k-1].Seq, ev.Seq)
						return
					}
					if ev.Kind == KindAnomaly && !strings.HasPrefix(ev.Reason, "writer ") ||
						ev.Kind == KindServiceLevel && ev.Reason != "" {
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
	if len(evs) != 1024 || evs[len(evs)-1].Seq != writers*perWriter-1 {
		t.Fatalf("retained %d events ending at seq %d, want the last 1024", len(evs), evs[len(evs)-1].Seq)
	}
}

func TestWriteJSONLDecodesPayloads(t *testing.T) {
	j := New(64)
	j.ServiceLevel(0, 1)
	j.Anomaly("prover disagreement")
	j.ServiceLevel(1, 0)

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
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if lines[0]["kind"] != "service_level" || lines[0]["from"] != float64(0) || lines[0]["to"] != float64(1) {
		t.Fatalf("line 0 = %v", lines[0])
	}
	if lines[1]["kind"] != "anomaly" || lines[1]["anomaly"] != "prover disagreement" {
		t.Fatalf("line 1 = %v", lines[1])
	}
	if _, ok := lines[1]["from"]; ok {
		t.Fatalf("anomaly line carries a level: %v", lines[1])
	}
	if lines[2]["kind"] != "service_level" || lines[2]["from"] != float64(1) || lines[2]["to"] != float64(0) {
		t.Fatalf("line 2 = %v", lines[2])
	}
	if _, ok := lines[2]["anomaly"]; ok {
		t.Fatalf("level line carries an anomaly: %v", lines[2])
	}
}

func TestAnomalySinkAndDumpFile(t *testing.T) {
	j := New(64)
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	long := "boom\n" + strings.Repeat("x", 2*maxReasonBytes)
	var got string
	j.SetAnomalySink(func(reason string) {
		got = reason
		if err := j.DumpFile(path); err != nil {
			t.Error(err)
		}
	})
	j.ServiceLevel(0, 1)
	j.Anomaly(long)
	if got != long {
		t.Fatalf("sink got %d bytes of the reason, want all %d", len(got), len(long))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("anomaly sink did not dump: %v", err)
	}
	if !bytes.Contains(data, []byte(`"anomaly":"boom\nxxx`)) {
		t.Fatalf("dump missing anomaly line:\n%.200s", data)
	}
	if !bytes.Contains(data, []byte(`"kind":"service_level"`)) {
		t.Fatalf("dump missing earlier event:\n%.200s", data)
	}
}

// TestAnomalyReasonsAreBounded: each event keeps at most maxReasonBytes
// (4 KiB) of its reason, in a copy of its own, so a ring of size events
// holds at most size × 4 KiB of reasons however many anomalies arrive and
// however long their reasons are.
func TestAnomalyReasonsAreBounded(t *testing.T) {
	const size, n, reasonBytes = 4, 32, 1 << 20
	j := New(size)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < n; i++ {
		// A fresh 1-MiB string per anomaly: a kept substring would pin it.
		j.Anomaly(fmt.Sprintf("panic %d\n", i) + strings.Repeat("x", reasonBytes))
	}
	evs := j.Snapshot()
	if len(evs) != size {
		t.Fatalf("retained %d events, want %d", len(evs), size)
	}
	for i, ev := range evs {
		if !strings.HasPrefix(ev.Reason, fmt.Sprintf("panic %d\n", n-size+i)) || len(ev.Reason) != maxReasonBytes {
			t.Fatalf("event %d keeps %d bytes starting %.12q, want the first %d of anomaly %d",
				i, len(ev.Reason), ev.Reason, maxReasonBytes, n-size+i)
		}
	}
	// The bound is size × 4 KiB = 16 KiB; one pinned 1-MiB reason breaks it.
	if grew := int64(heap()) - int64(before); grew > reasonBytes/2 {
		t.Fatalf("heap grew %d bytes after %d anomalies into a ring of %d, bound %d",
			grew, n, size, size*maxReasonBytes)
	}
	runtime.KeepAlive(j)
}

func BenchmarkServiceLevel(b *testing.B) {
	j := New(DefaultSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.ServiceLevel(0, i)
	}
}
