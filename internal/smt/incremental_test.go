package smt_test

import (
	"context"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/pipeline"
	"wetune/internal/smt"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// TestIncrementalMatchesFullOnSize2Pairs relaxes every size-2 pair that
// discovery tries, proving with DefaultPairProver's options and no deadline
// through one proof cache, as a discovery run does, so that each distinct
// goal is searched once. It requires at every DPLL node that the root value
// and branch atom kept incrementally are those of a full evaluation of the
// formula, and at every congruence assertion that the incremental conflict
// answer is a full scan's.
func TestIncrementalMatchesFullOnSize2Pairs(t *testing.T) {
	if testing.Short() {
		t.Skip("searches every size-2 goal with a full recomputation per node")
	}
	checks, mismatches := map[string]int{}, 0
	defer smt.SetIncrementalHook(func(what string, incremental, full int) {
		checks[what]++
		if incremental != full {
			if mismatches++; mismatches <= 10 {
				t.Errorf("%s #%d: incremental %d, full recomputation %d", what, checks[what], incremental, full)
			}
		}
	})()
	opts := discoveryOptions()
	prover := func(src, dest *template.Node) pipeline.Prover {
		pc := verify.NewPairContext(src, dest)
		return func(ctx context.Context, _, _ *template.Node, cs *constraint.Set) bool {
			o := opts
			o.Context = ctx // carries the cache's smt.Memo
			return pc.VerifyOpts(cs, o).Outcome == verify.Verified
		}
	}
	cache := pipeline.NewProofCache()
	tried := int64(0)
	ts := template.Enumerate(template.EnumOptions{MaxSize: 2})
	for _, src := range ts {
		for _, dest := range ts {
			if dest.NotMoreOpsThan(src) {
				_, st := pipeline.RunPair(context.Background(), src, pipeline.RenameApart(src, dest),
					pipeline.Options{PairProver: prover, Cache: cache})
				tried += st.PairsTried
			}
		}
	}
	t.Logf("%d pairs tried, answers checked: %v", tried, checks)
	if tried != 91 {
		t.Errorf("%d pairs tried, want 91", tried)
	}
	for _, what := range []string{"eval", "branch", "assertCC"} {
		if checks[what] == 0 {
			t.Errorf("no %s answer was checked", what)
		}
	}
}
