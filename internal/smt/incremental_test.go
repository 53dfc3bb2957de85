package smt_test

import "testing"

// TestIncrementalMatchesFullOnSize2Pairs requires, over every distinct goal
// of the size-2 discovery (the shared replay, size2Replay), that at every
// DPLL node the root value and branch atom kept incrementally are those of a
// full evaluation of the formula, and at every congruence assertion that the
// incremental conflict answer is a full scan's.
func TestIncrementalMatchesFullOnSize2Pairs(t *testing.T) {
	if testing.Short() {
		t.Skip("searches every size-2 goal with a full recomputation per node")
	}
	r := runSize2Replay()
	t.Logf("%d pairs tried, answers checked: %v", r.res.Stats.PairsTried, r.checks)
	for _, m := range r.incrementalMismatches {
		t.Error(m)
	}
	if r.res.Stats.PairsTried != 91 {
		t.Errorf("%d pairs tried, want 91", r.res.Stats.PairsTried)
	}
	for _, what := range []string{"eval", "branch", "assertCC"} {
		if r.checks[what] == 0 {
			t.Errorf("no %s answer was checked", what)
		}
	}
}
