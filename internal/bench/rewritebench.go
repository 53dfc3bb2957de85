package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"wetune/internal/obs"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/workload"
)

// RewriteBench is one measurement of the fixed rewrite workload
// (`wetune bench rewrite`): every plannable query of the application corpus
// plus the Calcite suite, rewritten once with the WeTune rule set. The
// workload is deterministic, so entries recorded before and after an engine
// change are directly comparable, and OutputSHA256 proves the rewritten SQL
// did not change. BENCH_rewrite.json holds the committed trajectory; "query"
// in the per-query fields is one rewritten input.
type RewriteBench struct {
	Name   string `json:"name"`
	Date   string `json:"date"`
	Engine string `json:"engine"` // "search"; the pre-index-greedy history entry says "greedy"

	Queries   int `json:"queries"`
	Rewritten int `json:"rewritten"`

	WallNS     int64 `json:"wall_ns"`
	NsPerQuery int64 `json:"ns_per_query"`

	Allocs         uint64 `json:"allocs"`
	AllocsPerQuery uint64 `json:"allocs_per_query"`
	AllocBytes     uint64 `json:"alloc_bytes"`

	// Search effort counters (registry deltas; zero in the pre-index-greedy
	// history entry, which predates the index and the counters).
	RuleAttempts int64 `json:"rule_attempts"`
	IndexPruned  int64 `json:"index_pruned"`
	ShapePruned  int64 `json:"shape_pruned"`
	MemoHits     int64 `json:"memo_hits"`

	OutputSHA256 string `json:"output_sha256"`
}

// RunRewrite executes the fixed rewrite workload once and measures it.
// Allocation counts are process-wide Mallocs deltas around the run.
func RunRewrite(name string) RewriteBench {
	const perApp = 100
	schemas, items := workload.RewriteCorpus(perApp)
	rewriters := map[string]*rewrite.Rewriter{}
	for app, schema := range schemas {
		rewriters[app] = rewrite.NewRewriter(workload.WeTuneRules(), schema)
	}
	plans := make([]plan.Node, len(items))
	queries := 0
	for i, it := range items {
		p, err := plan.BuildSQL(it.SQL, schemas[it.App])
		if err != nil {
			continue // unplannable queries are skipped
		}
		plans[i] = p
		queries++
	}

	reg := obs.Default()
	attempts0 := reg.Counter("rewrite_rule_attempts").Value()
	idxPruned0 := reg.Counter("rewrite_index_pruned").Value()
	shapePruned0 := reg.Counter("rewrite_shape_pruned").Value()
	memoHits0 := reg.Counter("rewrite_memo_hits").Value()

	h := sha256.New()
	rewritten := 0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, it := range items {
		if plans[i] == nil {
			continue
		}
		out, applied, _ := rewriters[it.App].Search(plans[i], rewrite.Options{})
		if len(applied) > 0 {
			rewritten++
		}
		fmt.Fprintln(h, plan.ToSQLString(out))
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	b := RewriteBench{
		Name:         name,
		Date:         time.Now().UTC().Format("2006-01-02"),
		Engine:       "search",
		Queries:      queries,
		Rewritten:    rewritten,
		WallNS:       wall.Nanoseconds(),
		Allocs:       m1.Mallocs - m0.Mallocs,
		AllocBytes:   m1.TotalAlloc - m0.TotalAlloc,
		RuleAttempts: reg.Counter("rewrite_rule_attempts").Value() - attempts0,
		IndexPruned:  reg.Counter("rewrite_index_pruned").Value() - idxPruned0,
		ShapePruned:  reg.Counter("rewrite_shape_pruned").Value() - shapePruned0,
		MemoHits:     reg.Counter("rewrite_memo_hits").Value() - memoHits0,
		OutputSHA256: hex.EncodeToString(h.Sum(nil)),
	}
	if queries > 0 {
		b.NsPerQuery = b.WallNS / int64(queries)
		b.AllocsPerQuery = b.Allocs / uint64(queries)
	}
	return b
}

// AppendRewriteJSON appends entry to the JSON array in path (created if
// missing) and returns the full trajectory.
func AppendRewriteJSON(path string, entry RewriteBench) ([]RewriteBench, error) {
	var entries []RewriteBench
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	entries = append(entries, entry)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return entries, nil
}
