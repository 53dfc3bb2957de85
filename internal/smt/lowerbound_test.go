package smt_test

import (
	"context"
	"sync"
	"testing"

	"wetune/internal/pipeline"
	"wetune/internal/smt"
	"wetune/internal/template"
)

// TestStreamedAtomCountIsLowerBound checks the lemma early refusal rests on,
// over every solver call of the size-2 discovery run (the run
// verify/testdata/size2_proofs.golden records): with refusal left to decide,
// the atoms solve streamed never outnumber the atoms decide counts, so a
// formula solve refuses is one decide would have refused.
func TestStreamedAtomCountIsLowerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds every refused formula of the size-2 run in full")
	}
	var mu sync.Mutex
	calls, early, late := 0, 0, 0
	defer smt.SetGroundedHook(func(streamed, decided int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		switch {
		case streamed > decided:
			t.Errorf("solve streamed %d atoms, decide counted %d", streamed, decided)
		case streamed > smt.MaxAtoms:
			early++
		case decided > smt.MaxAtoms:
			late++
		}
	})()
	res := pipeline.Run(context.Background(), pipeline.Options{
		Templates:  template.Enumerate(template.EnumOptions{MaxSize: 2}),
		PairProver: pipeline.DefaultPairProver,
		Workers:    2,
	})
	t.Logf("%d prover calls, %d solver calls: %d over the cap by the streamed count, %d more by decide's alone",
		res.Stats.ProverCalls, calls, early, late)
	if res.Stats.ProverCalls != 1523 || early == 0 || late == 0 {
		t.Errorf("want the 1523-call run with refusals of both kinds")
	}
}
