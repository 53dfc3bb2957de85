package smt_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"wetune/internal/pipeline"
	"wetune/internal/smt"
	"wetune/internal/template"
)

// size2RulesSHA256 pins the rule set of the size-2 discovery run with the
// default prover: sha256 over r.String()+"\n" per rule, in emission order.
const size2RulesSHA256 = "7791c19a8b68e59da2076c7c9987f84cf4a5050057f9eed77e1f4307601945b6"

// TestStreamedAtomCountIsLowerBound checks the lemma early refusal rests on,
// over every distinct goal of the size-2 discovery run (the run
// verify/testdata/size2_proofs.golden records; the run's memo answers the
// repeats without grounding them again): with refusal left to decide,
// the atoms solve streamed never outnumber the atoms decide counts, so a
// formula solve refuses is one decide would have refused. The same run is the
// tier-1 golden for the discovered rule set (69 rules, size2RulesSHA256).
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
	h := sha256.New()
	for _, r := range res.Rules {
		fmt.Fprintln(h, r.String())
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(res.Rules) != 69 || got != size2RulesSHA256 {
		t.Errorf("size-2 rule set: %d rules, sha256 %s; want 69 rules, sha256 %s\nif this change is intended, update the constant and say why in CHANGES.md",
			len(res.Rules), got, size2RulesSHA256)
	}
}
