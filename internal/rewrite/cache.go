package rewrite

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"

	"wetune/internal/faultinject"
	"wetune/internal/obs"
	"wetune/internal/obs/journal"
	"wetune/internal/plan"
)

// CachedResult is one memoized end-to-end rewrite outcome, keyed by the input
// query fingerprint (normalized SQL text at the Optimizer layer). CostBefore
// and CostAfter are Stats.InitialCost and FinalCost: the plan sizes.
type CachedResult struct {
	SQL        string
	Applied    []Applied
	Stats      Stats
	CostBefore float64
	CostAfter  float64
}

// CacheStats reports one cache's own traffic (the obs counters aggregate
// every cache in the process; these are per-instance).
//
// Consistency guarantee: the snapshot is assembled shard by shard with each
// shard's mutex held, so within a shard Hits+Misses equals exactly the
// lookups that completed before the snapshot visited it, and Entries matches
// the insertions minus evictions at the same instant — a lookup can never be
// counted while its LRU mutation is still in flight (the pre-sharding
// implementation read the counters outside the LRU lock, so a Get could be
// counted before, or after, its recency update was visible). Across shards
// the totals are a sum of per-shard-consistent slices taken at slightly
// different instants; all counts are monotone, so two snapshots S1 then S2
// always satisfy S1.Hits <= S2.Hits and S1.Misses <= S2.Misses.
type CacheStats struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
	Shards  int     `json:"shards,omitempty"`
}

// lruShard is one independently locked LRU. The hit/miss counters are
// atomics written only while mu is held: Stats reads them under the same
// lock for a consistent per-shard snapshot, while monitoring paths may read
// them lock-free (each value individually torn-free).
type lruShard[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recently used
	items map[string]*list.Element // key → element whose Value is *lruEntry[V]

	hits   atomic.Int64
	misses atomic.Int64
}

type lruEntry[V any] struct {
	key string
	val V
}

// shardedLRU is a bounded LRU cache split into power-of-two FNV-hashed
// shards so concurrent lookups on different keys contend only per shard.
// Entries are treated as immutable once stored.
type shardedLRU[V any] struct {
	shards []lruShard[V]
	mask   uint32

	// Cached obs handles: resolving a counter by name costs a registry
	// RWMutex + map lookup, which is measurable on the per-request hot path.
	hitC, missC *obs.Counter
	cacheID     int64 // journal cache identity (CacheResult or CachePlan)
}

// defaultShardCount picks the shard count when the caller does not:
// the next power of two at or above GOMAXPROCS, clamped to [4, 64].
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	s := 4
	for s < n && s < 64 {
		s <<= 1
	}
	return s
}

func newShardedLRU[V any](capacity, shards int, metric string, cacheID int64) *shardedLRU[V] {
	if capacity <= 0 {
		capacity = 256
	}
	if shards <= 0 {
		shards = defaultShardCount()
	}
	// Round shards up to a power of two for mask indexing.
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &shardedLRU[V]{
		shards:  make([]lruShard[V], n),
		mask:    uint32(n - 1),
		hitC:    obs.Default().Counter(metric + "_hits"),
		missC:   obs.Default().Counter(metric + "_misses"),
		cacheID: cacheID,
	}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].order = list.New()
		c.shards[i].items = map[string]*list.Element{}
	}
	return c
}

// fnv32a is the 32-bit FNV-1a hash, inlined to keep key→shard routing
// allocation-free.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *shardedLRU[V]) shard(key string) *lruShard[V] {
	return &c.shards[fnv32a(key)&c.mask]
}

// get looks up key, promoting it to most-recently-used on a hit.
func (c *shardedLRU[V]) get(key string) (V, bool) {
	sh := c.shard(key)
	if faultinject.Armed() {
		// Chaos points for the serving cache: a stalled shard (sleep
		// taken before the shard lock, so the stall slows this lookup, not
		// every key hashing here) and a failed shard (forced miss, counted
		// like a real one so hit/miss accounting stays monotone).
		faultinject.Stall(faultinject.CacheSlow)
		if faultinject.Fire(faultinject.CacheFail) {
			sh.mu.Lock()
			sh.misses.Add(1)
			sh.mu.Unlock()
			c.missC.Add(1)
			journal.Default().Record(journal.KindCacheMiss, -1, c.cacheID, 0)
			var zero V
			return zero, false
		}
	}
	sh.mu.Lock()
	el, ok := sh.items[key]
	if !ok {
		sh.misses.Add(1)
		sh.mu.Unlock()
		c.missC.Add(1)
		journal.Default().Record(journal.KindCacheMiss, -1, c.cacheID, 0)
		var zero V
		return zero, false
	}
	sh.order.MoveToFront(el)
	sh.hits.Add(1)
	v := el.Value.(*lruEntry[V]).val
	sh.mu.Unlock()
	c.hitC.Add(1)
	journal.Default().Record(journal.KindCacheHit, -1, c.cacheID, 0)
	return v, true
}

// put stores key → val, evicting the shard's least-recently-used entry on
// overflow.
func (c *shardedLRU[V]) put(key string, val V) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		sh.order.MoveToFront(el)
		return
	}
	el := sh.order.PushFront(&lruEntry[V]{key: key, val: val})
	sh.items[key] = el
	if sh.order.Len() > sh.cap {
		last := sh.order.Back()
		sh.order.Remove(last)
		delete(sh.items, last.Value.(*lruEntry[V]).key)
	}
}

// len returns the number of cached entries across all shards.
func (c *shardedLRU[V]) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}

// stats assembles the per-shard-consistent snapshot (see CacheStats).
func (c *shardedLRU[V]) stats() CacheStats {
	s := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Entries += sh.order.Len()
		sh.mu.Unlock()
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// ResultCache is a bounded, sharded LRU cache of rewrite results. It is safe
// for concurrent use: keys route to one of a power-of-two set of
// independently locked shards, so lookups for different query shapes do not
// serialize on one mutex. Entries are immutable once stored — callers must
// not mutate the Applied slice of a returned result.
type ResultCache struct {
	c *shardedLRU[CachedResult]
}

// NewResultCache builds a cache bounded to ~n entries (n <= 0 defaults to
// 256) with the default shard count. The per-shard capacity is ceil(n/shards),
// so the total bound rounds up to a multiple of the shard count.
func NewResultCache(n int) *ResultCache { return NewResultCacheShards(n, 0) }

// NewResultCacheShards is NewResultCache with an explicit shard count
// (rounded up to a power of two; 0 picks the default, which scales with
// GOMAXPROCS).
func NewResultCacheShards(n, shards int) *ResultCache {
	return &ResultCache{c: newShardedLRU[CachedResult](n, shards, "rewrite_result_cache", journal.CacheResult)}
}

// Get looks up key, promoting it to most-recently-used on a hit.
func (c *ResultCache) Get(key string) (CachedResult, bool) { return c.c.get(key) }

// Put stores key → res, evicting the least-recently-used entry of the key's
// shard on overflow.
func (c *ResultCache) Put(key string, res CachedResult) { c.c.put(key, res) }

// Len returns the number of cached entries.
func (c *ResultCache) Len() int { return c.c.len() }

// Stats returns the cache's cumulative hit/miss counts and current size.
// See CacheStats for the snapshot-consistency guarantee.
func (c *ResultCache) Stats() CacheStats { return c.c.stats() }

// PlanCache is an optional second cache tier behind the result cache: a
// bounded, sharded LRU of search-ready plans keyed by normalized SQL text.
// The serving daemon does not use it; it remains only because the
// benchmark's per-layer probe calls it, and it is deleted (with
// Options.SkipOrderByElim) once that probe stops. A hit
// skips sql.Parse, plan construction AND ORDER-BY elimination — the stored
// plan is the post-EliminateOrderBy start state, which is what makes
// concurrent reuse safe: after elimination the rewrite search treats plans
// as immutable (every rewrite builds fresh nodes), whereas elimination
// itself mutates ORDER-BY clauses inside predicate subqueries and therefore
// must run exactly once, before the plan is shared.
type PlanCache struct {
	c *shardedLRU[plan.Node]
}

// NewPlanCache builds a plan cache bounded to ~n entries (n <= 0 defaults to
// 256) with the default shard count.
func NewPlanCache(n int) *PlanCache { return NewPlanCacheShards(n, 0) }

// NewPlanCacheShards is NewPlanCache with an explicit shard count (rounded
// up to a power of two; 0 picks the default).
func NewPlanCacheShards(n, shards int) *PlanCache {
	return &PlanCache{c: newShardedLRU[plan.Node](n, shards, "rewrite_plan_cache", journal.CachePlan)}
}

// Get looks up a search-ready plan by normalized query text. The returned
// plan is shared: callers must only pass it to searches that treat it as
// immutable (Search with SkipOrderByElim, which every cached-plan caller
// uses).
func (c *PlanCache) Get(key string) (plan.Node, bool) { return c.c.get(key) }

// Put stores a search-ready (post-EliminateOrderBy) plan.
func (c *PlanCache) Put(key string, p plan.Node) { c.c.put(key, p) }

// Len returns the number of cached plans.
func (c *PlanCache) Len() int { return c.c.len() }

// Stats returns the cache's cumulative hit/miss counts and current size.
// See CacheStats for the snapshot-consistency guarantee.
func (c *PlanCache) Stats() CacheStats { return c.c.stats() }
