package server

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"

	"wetune/internal/racetest"
)

// TestCachedMissHeapFootprint bounds what a served result-cache miss leaves
// live on the heap. Every miss stores one result-cache entry, so the live
// objects it adds, divided by the entries the cache holds, is the per-entry
// cost of the serving cache. A second per-entry tier (a cached plan tree is
// a dozen objects or more) pushes the figure past the bound.
func TestCachedMissHeapFootprint(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector keeps shadow state on the heap")
	}
	const misses, maxObjectsPerEntry = 2000, 8
	shapes := []string{
		`{"sql": "SELECT DISTINCT id FROM labels WHERE project_id = %d"}`,
		`{"sql": "SELECT id FROM labels WHERE project_id IN (SELECT id FROM projects WHERE id = %d)"}`,
		`{"sql": "SELECT labels.title FROM labels JOIN projects ON labels.project_id = projects.id WHERE projects.id = %d"}`,
	}
	s, _, _ := newTestServer(t, nil)
	// Warm the pools and lazily built state before the first reading with
	// literals the loop below never sends.
	for i := range shapes {
		if rec := do(s, http.MethodPost, "/v1/rewrite", fmt.Sprintf(shapes[i], -1-i)); rec.Code != http.StatusOK {
			t.Fatalf("shape %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	before := liveHeap()
	for i := 0; i < misses; i++ {
		if rec := do(s, http.MethodPost, "/v1/rewrite", fmt.Sprintf(shapes[i%len(shapes)], i)); rec.Code != http.StatusOK {
			t.Fatalf("miss %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	after := liveHeap()

	stats, ok := s.opts["demo"].ResultCacheStats()
	if !ok {
		t.Fatal("the result cache is off at server defaults")
	}
	entries := stats.Entries - len(shapes)
	if entries < misses*9/10 {
		t.Fatalf("the result cache holds %d of %d misses", entries, misses)
	}
	objs := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / float64(entries)
	bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(entries)
	t.Logf("%d cached entries: %.1f live objects, %.0f live bytes per entry", entries, objs, bytes)
	if objs > maxObjectsPerEntry {
		t.Errorf("each cached miss keeps %.1f objects live, bound %d", objs, maxObjectsPerEntry)
	}
}

// liveHeap collects garbage twice (the second pass empties the sync.Pool
// victim caches the first one filled) and returns what is left.
func liveHeap() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
