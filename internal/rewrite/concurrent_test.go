package rewrite

import (
	"sync"
	"testing"

	"wetune/internal/plan"
)

// TestConcurrentRewrites hammers one shared Rewriter from many goroutines
// (run under -race in CI): the compiled rule index is shared immutable state,
// all search scratch is per-call, so every goroutine must get the same answer
// the sequential engine gives.
func TestConcurrentRewrites(t *testing.T) {
	schema := gitlabSchema()
	rw := newRW(t)
	queries := []string{
		q0,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
		`SELECT DISTINCT id FROM labels WHERE project_id = 3`,
		`SELECT name FROM projects`,
	}
	plans := make([]plan.Node, len(queries))
	want := make([]string, len(queries))
	for i, q := range queries {
		plans[i] = mustPlan(t, q, schema)
		out, _, _ := rw.Search(plans[i], Options{})
		want[i] = plan.ToSQLString(out)
	}

	const goroutines = 16
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(plans)
				out, _, _ := rw.Search(plans[i], Options{})
				if got := plan.ToSQLString(out); got != want[i] {
					select {
					case errs <- errMismatch(queries[i], want[i], got):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLazyIndexBuild exercises the sync.Once index build under
// contention: a Rewriter constructed without NewRewriter (fields set
// directly, as internal/bench does) builds its index on first use from
// whichever goroutine gets there first.
func TestConcurrentLazyIndexBuild(t *testing.T) {
	schema := gitlabSchema()
	base := newRW(t)
	rw := &Rewriter{Rules: base.Rules, Schema: schema}
	p := mustPlan(t, q0, schema)
	want, _, _ := base.Search(p, Options{})
	wantSQL := plan.ToSQLString(want)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _, _ := rw.Search(p, Options{})
			if got := plan.ToSQLString(out); got != wantSQL {
				select {
				case errs <- errMismatch(q0, wantSQL, got):
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

type mismatchError struct{ q, want, got string }

func (e *mismatchError) Error() string {
	return "concurrent rewrite of " + e.q + " diverged:\n  want " + e.want + "\n  got  " + e.got
}

func errMismatch(q, want, got string) error { return &mismatchError{q, want, got} }
