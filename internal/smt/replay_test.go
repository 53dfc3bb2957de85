package smt_test

import (
	"context"
	"fmt"
	"sync"

	"wetune/internal/constraint"
	"wetune/internal/pipeline"
	"wetune/internal/smt"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// size2Replay is what one size-2 discovery run showed the solver's test
// hooks. The run is DefaultPairProver's with no deadline, so that every
// search runs to its node budget, on two workers sharing the run's proof
// cache and memo, so each distinct goal is searched once.
type size2Replay struct {
	res *pipeline.Result

	// The incremental hook: answers checked per kind, and the first
	// disagreements with a full recomputation.
	checks                map[string]int
	incrementalMismatches []string

	// The grounded hook: solver calls, refusals by the streamed count and by
	// decide's alone, and streamed counts above decide's.
	grounded, early, late int
	overCounted           []string
}

var (
	replayOnce sync.Once
	replay     size2Replay
)

// runSize2Replay runs the replay on its first call and returns it. Both
// hooks are package variables, so no other test may run the solver while it
// does.
func runSize2Replay() *size2Replay {
	replayOnce.Do(func() {
		var mu sync.Mutex
		r := &replay
		r.checks = map[string]int{}
		defer smt.SetIncrementalHook(func(what string, incremental, full int) {
			mu.Lock()
			defer mu.Unlock()
			r.checks[what]++
			if incremental != full && len(r.incrementalMismatches) < 10 {
				r.incrementalMismatches = append(r.incrementalMismatches,
					fmt.Sprintf("%s #%d: incremental %d, full recomputation %d", what, r.checks[what], incremental, full))
			}
		})()
		defer smt.SetGroundedHook(func(streamed, decided int) {
			mu.Lock()
			defer mu.Unlock()
			r.grounded++
			switch {
			case streamed > decided:
				r.overCounted = append(r.overCounted, fmt.Sprintf("solve streamed %d atoms, decide counted %d", streamed, decided))
			case streamed > smt.MaxAtoms:
				r.early++
			case decided > smt.MaxAtoms:
				r.late++
			}
		})()
		opts := discoveryOptions()
		r.res = pipeline.Run(context.Background(), pipeline.Options{
			Templates: template.Enumerate(template.EnumOptions{MaxSize: 2}),
			PairProver: func(src, dest *template.Node) pipeline.Prover {
				pc := verify.NewPairContext(src, dest)
				return func(ctx context.Context, _, _ *template.Node, cs *constraint.Set) bool {
					o := opts
					o.Context = ctx // carries the cache's smt.Memo
					return pc.VerifyOpts(cs, o).Outcome == verify.Verified
				}
			},
			Workers: 2,
		})
	})
	return &replay
}
