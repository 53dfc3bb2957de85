package bench

import (
	"context"
	"time"

	"wetune/internal/pipeline"
	"wetune/internal/rewrite"
	"wetune/internal/rules"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// AblationConstraintPruning compares the rule search with and without the
// closure/implication pruning of §4.3.
func AblationConstraintPruning() *Report {
	r := NewReport("Ablation: constraint-search pruning (4.3)")
	templates := template.Enumerate(template.EnumOptions{MaxSize: 2})
	run := func(disable bool) (int64, int64, time.Duration) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		res := pipeline.Run(ctx, pipeline.Options{
			Templates:      templates,
			PairProver:     pipeline.AlgebraicPairProver,
			DisablePruning: disable,
			Workers:        2,
		})
		return res.Stats.ProverCalls, res.Stats.RulesFound, time.Since(start)
	}
	prunedCalls, prunedRules, prunedTime := run(false)
	naiveCalls, naiveRules, naiveTime := run(true)
	r.Printf("with pruning:    %6d prover calls, %3d rules, %v", prunedCalls, prunedRules, prunedTime)
	r.Printf("without pruning: %6d prover calls, %3d rules, %v", naiveCalls, naiveRules, naiveTime)
	if naiveCalls > 0 {
		r.Printf("pruning saves %.0f%% of prover calls", 100*(1-float64(prunedCalls)/float64(naiveCalls)))
	}
	r.Metric("pruned_calls", float64(prunedCalls))
	r.Metric("naive_calls", float64(naiveCalls))
	return r
}

// AblationVerifierPaths compares the algebraic fast path against the
// FOL+SMT path on the Table 7 rules.
func AblationVerifierPaths() *Report {
	r := NewReport("Ablation: verifier paths (algebraic vs SMT)")
	run := func(opts verify.Options) (int, time.Duration) {
		ok := 0
		start := time.Now()
		for _, rule := range rules.Table7() {
			if verify.VerifyOpts(rule.Src, rule.Dest, rule.Constraints, opts).Outcome == verify.Verified {
				ok++
			}
		}
		return ok, time.Since(start)
	}
	algOpts := verify.DefaultOptions()
	algOpts.SkipSMT = true
	smtOpts := verify.DefaultOptions()
	smtOpts.SkipAlgebraic = true
	smtOpts.SMT.Deadline = 500 * time.Millisecond
	bothOpts := verify.DefaultOptions()

	algOK, algT := run(algOpts)
	smtOK, smtT := run(smtOpts)
	bothOK, bothT := run(bothOpts)
	n := len(rules.Table7())
	r.Printf("algebraic only: %2d/%d in %v", algOK, n, algT)
	r.Printf("SMT only:       %2d/%d in %v", smtOK, n, smtT)
	r.Printf("combined:       %2d/%d in %v", bothOK, n, bothT)
	r.Metric("algebraic", float64(algOK))
	r.Metric("smt", float64(smtOK))
	r.Metric("combined", float64(bothOK))
	return r
}

// RuleReduction reproduces §7's redundant-rule elimination over Table 7 plus
// the discovered extras.
func RuleReduction() *Report {
	r := NewReport("Rule reduction (7)")
	all := rules.All()
	kept, removed := rewrite.Reduce(all)
	r.Printf("input rules: %d; kept %d; removed %d as reducible", len(all), len(kept), len(removed))
	for _, rm := range removed {
		r.Printf("  reducible: rule %d (%s)", rm.No, rm.Name)
	}
	r.Metric("kept", float64(len(kept)))
	r.Metric("removed", float64(len(removed)))
	return r
}
