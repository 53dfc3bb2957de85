package rewrite

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardedCacheStress hammers one sharded cache from many goroutines with
// a key space larger than the capacity, so Get/Put/eviction race across every
// shard. Run under -race this is the concurrency proof for the sharded LRU;
// the assertions below pin the invariants that must hold no matter the
// interleaving.
func TestShardedCacheStress(t *testing.T) {
	const (
		capacity = 64
		shards   = 8
		workers  = 16
		iters    = 2000
		keySpace = 256 // 4x capacity: constant eviction pressure
	)
	c := newResultCacheShards(capacity, shards)
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("query-%d", i)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := keys[(w*31+i)%keySpace]
				if r, ok := c.Get(key); ok && r.SQL != key {
					t.Errorf("key %s returned value %q", key, r.SQL)
					return
				}
				c.Put(key, CachedResult{SQL: key})
				if i%64 == 0 {
					s := c.Stats()
					if s.Hits < 0 || s.Misses < 0 || s.Entries < 0 {
						t.Errorf("negative stats: %+v", s)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Stats()
	// Capacity bound: per-shard cap is ceil(64/8) = 8, so never above 64.
	if got := c.Len(); got > capacity {
		t.Fatalf("cache exceeded capacity: %d > %d", got, capacity)
	}
	if s.Entries > capacity {
		t.Fatalf("stats entries exceeded capacity: %d > %d", s.Entries, capacity)
	}
	// Every lookup was counted exactly once, as a hit or a miss.
	if total := s.Hits + s.Misses; total != workers*iters {
		t.Fatalf("hits+misses = %d, want %d", total, workers*iters)
	}
	if s.Shards != shards {
		t.Fatalf("stats shards = %d, want %d", s.Shards, shards)
	}
}

// TestShardedCacheStatsMonotone proves the documented snapshot guarantee:
// counters observed by concurrent Stats() calls never go backwards while
// lookups run — the regression the sharding fix closed (the old
// implementation read hit/miss counters outside the LRU lock).
func TestShardedCacheStatsMonotone(t *testing.T) {
	c := newResultCacheShards(32, 4)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := fmt.Sprintf("k%d", (w+i)%64)
				c.Get(key)
				c.Put(key, CachedResult{SQL: key})
			}
		}(w)
	}

	var prev CacheStats
	for i := 0; i < 500; i++ {
		s := c.Stats()
		if s.Hits < prev.Hits || s.Misses < prev.Misses {
			t.Fatalf("stats went backwards: %+v after %+v", s, prev)
		}
		prev = s
	}
	close(done)
	wg.Wait()
}

// TestPlanCacheBasic pins the plan-cache wrapper's LRU behavior and stats
// accounting (the search-level equivalence proof lives in the root package's
// plan-cache corpus test).
func TestPlanCacheBasic(t *testing.T) {
	c := newPlanCacheShards(2, 1)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("empty cache returned a plan")
	}
	c.Put("a", nil)
	c.Put("b", nil)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", nil) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	s := c.Stats()
	if s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", s.Hits, s.Misses)
	}
}
