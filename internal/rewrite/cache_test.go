package rewrite

import (
	"fmt"
	"sync"
	"testing"
)

func TestResultCacheLRUEviction(t *testing.T) {
	// One shard: eviction order is the exact global LRU order, which is what
	// this test pins. (With n shards the LRU bound holds per shard.)
	c := newResultCacheShards(2, 1)
	c.Put("a", CachedResult{SQL: "A"})
	c.Put("b", CachedResult{SQL: "B"})
	if _, ok := c.Get("a"); !ok { // promotes a to MRU
		t.Fatal("a missing")
	}
	c.Put("c", CachedResult{SQL: "C"}) // evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if r, ok := c.Get("a"); !ok || r.SQL != "A" {
		t.Fatalf("a lost or corrupted: %+v ok=%v", r, ok)
	}
	if r, ok := c.Get("c"); !ok || r.SQL != "C" {
		t.Fatalf("c lost or corrupted: %+v ok=%v", r, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Overwrite keeps one entry per key.
	c.Put("c", CachedResult{SQL: "C2"})
	if r, _ := c.Get("c"); r.SQL != "C2" {
		t.Fatalf("overwrite lost: %+v", r)
	}
	if c.Len() != 2 {
		t.Fatalf("Len after overwrite = %d, want 2", c.Len())
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c := NewResultCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("q%d", (g+i)%24)
				if r, ok := c.Get(key); ok && r.SQL != key {
					t.Errorf("key %s holds %q", key, r.SQL)
					return
				}
				c.Put(key, CachedResult{SQL: key})
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache overflowed its bound: %d", c.Len())
	}
}
