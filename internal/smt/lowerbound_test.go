package smt_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// size2RulesSHA256 pins the rule set of the size-2 discovery run with the
// default prover: sha256 over r.String()+"\n" per rule, in emission order.
const size2RulesSHA256 = "7791c19a8b68e59da2076c7c9987f84cf4a5050057f9eed77e1f4307601945b6"

// TestStreamedAtomCountIsLowerBound checks the lemma early refusal rests on,
// over every distinct goal of the size-2 discovery run (the shared replay,
// size2Replay; the run's memo answers the repeats without grounding them
// again): with refusal left to decide, the atoms solve streamed never
// outnumber the atoms decide counts, so a formula solve refuses is one decide
// would have refused. The same run is the tier-1 golden for the discovered
// rule set (69 rules, size2RulesSHA256).
func TestStreamedAtomCountIsLowerBound(t *testing.T) {
	if testing.Short() {
		t.Skip("grounds every refused formula of the size-2 run in full")
	}
	r := runSize2Replay()
	t.Logf("%d prover calls, %d solver calls: %d over the cap by the streamed count, %d more by decide's alone",
		r.res.Stats.ProverCalls, r.grounded, r.early, r.late)
	for _, m := range r.overCounted {
		t.Error(m)
	}
	if r.res.Stats.ProverCalls != 1523 || r.early == 0 || r.late == 0 {
		t.Errorf("want the 1523-call run with refusals of both kinds")
	}
	h := sha256.New()
	for _, rule := range r.res.Rules {
		fmt.Fprintln(h, rule.String())
	}
	if got := hex.EncodeToString(h.Sum(nil)); len(r.res.Rules) != 69 || got != size2RulesSHA256 {
		t.Errorf("size-2 rule set: %d rules, sha256 %s; want 69 rules, sha256 %s\nif this change is intended, update the constant and say why in CHANGES.md",
			len(r.res.Rules), got, size2RulesSHA256)
	}
}
