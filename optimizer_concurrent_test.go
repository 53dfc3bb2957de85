package wetune

import (
	"sync"
	"testing"
)

// optimizerWorkload is the query mix the concurrency tests hammer: a spread
// of rewritable and un-rewritable shapes over the demo schema.
var optimizerWorkload = []string{
	"SELECT * FROM users WHERE id IN (SELECT id FROM users WHERE plan_id = 3)",
	"SELECT events.kind FROM events INNER JOIN users ON events.user_id = users.id",
	"SELECT DISTINCT email FROM users",
	"SELECT name FROM plans",
	"SELECT * FROM users WHERE email = 'a@b.c'",
	"SELECT id FROM events WHERE kind = 'click' AND id IN (SELECT id FROM events WHERE user_id = 1)",
}

// TestOptimizerConcurrentUse hammers one shared Optimizer from many
// goroutines over the workload queries (run under -race in CI): the compiled
// rule set and shape index are immutable shared state and all search scratch
// is per-call, so every goroutine must reproduce the sequential answers.
func TestOptimizerConcurrentUse(t *testing.T) {
	schema := demoSchema(t)
	opt := NewOptimizer(BuiltinRules(), schema)
	opt.EnableResultCache(32)

	want := make([]string, len(optimizerWorkload))
	for i, q := range optimizerWorkload {
		res, err := opt.OptimizeSQLResult(q)
		if err != nil {
			t.Fatalf("sequential %q: %v", q, err)
		}
		want[i] = res.Output
	}

	const goroutines = 24
	const iters = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g*7 + it) % len(optimizerWorkload)
				res, err := opt.OptimizeSQLResult(optimizerWorkload[i])
				if err != nil {
					fail(err)
					return
				}
				if res.Output != want[i] {
					fail(&divergedError{optimizerWorkload[i], want[i], res.Output})
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

type divergedError struct{ q, want, got string }

func (e *divergedError) Error() string {
	return "concurrent optimize of " + e.q + " diverged:\n  want " + e.want + "\n  got  " + e.got
}

// TestOptimizeSQLResult checks the machine-readable result surface: costs,
// stats, applied chain, and result-cache behavior.
func TestOptimizeSQLResult(t *testing.T) {
	schema := demoSchema(t)
	opt := NewOptimizer(BuiltinRules(), schema)
	opt.EnableResultCache(8)
	q := "SELECT * FROM users WHERE id IN (SELECT id FROM users WHERE plan_id = 3)"

	res, err := opt.OptimizeSQLResult(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("first call reported cached")
	}
	if res.Input != q {
		t.Fatalf("Input = %q, want the query", res.Input)
	}
	if len(res.Applied) == 0 {
		t.Fatal("no rules applied to the IN-subquery query")
	}
	if res.CostBefore <= 0 || res.CostAfter <= 0 {
		t.Fatalf("costs not populated: before=%v after=%v", res.CostBefore, res.CostAfter)
	}
	if res.Stats.NodesExplored == 0 || res.Stats.RuleAttempts == 0 {
		t.Fatalf("search stats not populated: %+v", res.Stats)
	}

	res2, err := opt.OptimizeSQLResult(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("second call not served from the result cache")
	}
	if res2.Output != res.Output || len(res2.Applied) != len(res.Applied) {
		t.Fatalf("cached result differs: %+v vs %+v", res2, res)
	}
}
