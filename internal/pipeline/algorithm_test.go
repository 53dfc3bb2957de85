package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/template"
)

// Algorithm 1 (§4.3) on Run/RunPair: what the relaxation search finds, not
// how the pipeline schedules it (pipeline_test.go covers that).

func TestRunPairFindsFigure2Rule(t *testing.T) {
	src := template.InSub(asym(0), template.InSub(asym(1), template.Input(rsym(0)), template.Input(rsym(1))), template.Input(rsym(2)))
	dest := template.InSub(asym(2), template.Input(rsym(3)), template.Input(rsym(4)))
	rules, _ := RunPair(context.Background(), src, dest, Options{PairProver: AlgebraicPairProver, maxProverCallsPerPair: 2000, maxConstraints: 60})
	if len(rules) == 0 {
		t.Fatal("no rules found for the Figure 2 pair")
	}
	// At least one discovered rule must include the essential constraints of
	// Figure 2 (r1=r2, r1=r4, r0=r3, attrs equal).
	found := false
	for _, rule := range rules {
		cl := constraint.Closure(rule.Constraints)
		if cl.Has(constraint.New(constraint.RelEq, rsym(1), rsym(2))) &&
			cl.Has(constraint.New(constraint.RelEq, rsym(0), rsym(3))) &&
			cl.Has(constraint.New(constraint.AttrsEq, asym(0), asym(1))) {
			found = true
		}
	}
	if !found {
		for _, rule := range rules {
			t.Logf("rule: %s", rule.Constraints)
		}
		t.Fatal("Figure 2 constraint set not among discovered rules")
	}
}

func TestRunPairMostRelaxed(t *testing.T) {
	// Sel(Sel(r)) -> Sel(r'): the most relaxed set must not force
	// constraints beyond symbol identification.
	src := template.Sel(psym(0), asym(0), template.Sel(psym(1), asym(1), template.Input(rsym(0))))
	dest := template.Sel(psym(2), asym(2), template.Input(rsym(1)))
	rules, _ := RunPair(context.Background(), src, dest, Options{PairProver: AlgebraicPairProver, maxProverCallsPerPair: 3000, maxConstraints: 60})
	if len(rules) == 0 {
		t.Fatal("no rules for idempotent selection pair")
	}
	for _, rule := range rules {
		// No discovered constraint set should contain integrity constraints:
		// the rule holds from equalities alone.
		for _, c := range rule.Constraints.Items() {
			switch c.Kind {
			case constraint.Unique, constraint.NotNull, constraint.RefAttrs:
				t.Errorf("unexpected integrity constraint %v in %s", c, rule.Constraints)
			}
		}
	}
}

func TestRunPairRejectsUnprovablePair(t *testing.T) {
	// Proj(r) vs Dedup(r): never equivalent under any constraint set we
	// enumerate (Dedup changes multiplicities; Proj does not dedup).
	src := template.Proj(asym(0), template.Input(rsym(0)))
	dest := template.Dedup(template.Input(rsym(1)))
	rules, _ := RunPair(context.Background(), src, dest, Options{PairProver: AlgebraicPairProver, maxProverCallsPerPair: 500})
	if len(rules) != 0 {
		t.Fatalf("found %d bogus rules", len(rules))
	}
}

func TestRunSmallSweep(t *testing.T) {
	res := Run(context.Background(), Options{
		Templates:             size1Templates(),
		PairProver:            AlgebraicPairProver,
		maxProverCallsPerPair: 200,
		Workers:               2,
	})
	if res.Stats.PairsTried == 0 {
		t.Fatal("no pairs tried")
	}
	if res.Stats.ProverCalls == 0 {
		t.Fatal("prover never called")
	}
	// Every found rule must satisfy the simplicity filter and be verifiable.
	for _, rule := range res.Rules {
		if !rule.Dest.NotMoreOpsThan(rule.Src) {
			t.Errorf("rule violates simplicity: %s => %s", rule.Src, rule.Dest)
		}
		if !AlgebraicPairProver(rule.Src, rule.Dest)(context.Background(), rule.Src, rule.Dest, rule.Constraints) {
			t.Errorf("reported rule does not verify: %s => %s under %s",
				rule.Src, rule.Dest, rule.Constraints)
		}
	}
}

func TestPruningReducesProverCalls(t *testing.T) {
	src := template.Sel(psym(0), asym(0), template.Sel(psym(1), asym(1), template.Input(rsym(0))))
	dest := template.Sel(psym(2), asym(2), template.Input(rsym(1)))
	opts := Options{PairProver: AlgebraicPairProver, maxProverCallsPerPair: 5000, maxConstraints: 90, deletionOrders: 3}
	_, withPruning := RunPair(context.Background(), src, dest, opts)
	opts.DisablePruning = true
	_, withoutPruning := RunPair(context.Background(), src, dest, opts)
	if withPruning.ProverCalls >= withoutPruning.ProverCalls {
		t.Fatalf("pruning should reduce prover calls: %d vs %d",
			withPruning.ProverCalls, withoutPruning.ProverCalls)
	}
	t.Logf("prover calls: pruned=%d unpruned=%d", withPruning.ProverCalls, withoutPruning.ProverCalls)
}

func TestDestCovered(t *testing.T) {
	src := template.Proj(asym(0), template.Input(rsym(0)))
	dest := template.Proj(asym(1), template.Input(rsym(1)))
	// Fully tied: covered.
	cs := constraint.NewSet(
		constraint.New(constraint.RelEq, rsym(0), rsym(1)),
		constraint.New(constraint.AttrsEq, asym(0), asym(1)),
	)
	if !DestCovered(src, dest, constraint.Unify(cs)) {
		t.Error("fully tied destination reported uncovered")
	}
	// Missing the attrs tie: uncovered.
	cs2 := constraint.NewSet(constraint.New(constraint.RelEq, rsym(0), rsym(1)))
	if DestCovered(src, dest, constraint.Unify(cs2)) {
		t.Error("untied attrs symbol reported covered")
	}
	// The destination's symbols represent their classes: still covered.
	if !DestCovered(dest, src, constraint.Unify(cs)) {
		t.Error("destination symbols that are their class's representative reported uncovered")
	}
}

// TestRunRediscoversTable7Rules checks the paper's central claim at small
// scale: the automatic search re-finds known useful rules. Rule 2
// (Dedup(Proj(r)) = Proj(r) under Unique) and rule 3 (idempotent selection)
// are size <= 2 shapes the sweep must surface.
func TestRunRediscoversTable7Rules(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res := Run(ctx, Options{
		Templates:  template.Enumerate(template.EnumOptions{MaxSize: 2}),
		PairProver: AlgebraicPairProver,
	})
	foundRule2, foundRule3 := false, false
	for _, rule := range res.Rules {
		src, dest := rule.Src.String(), rule.Dest.String()
		// Rule 2 shape: Dedup(Proj(r)) => Proj(r') with a Unique constraint.
		if strings.HasPrefix(src, "Dedup(Proj_") && strings.HasPrefix(dest, "Proj_") {
			for _, c := range rule.Constraints.Items() {
				if c.Kind == constraint.Unique {
					foundRule2 = true
				}
			}
		}
		// Rule 3 shape: Sel(Sel(r)) => Sel(r') with matching predicates.
		if strings.HasPrefix(src, "Sel_") && strings.Contains(src, "(Sel_") &&
			strings.HasPrefix(dest, "Sel_") && !strings.Contains(dest, "(Sel_") {
			foundRule3 = true
		}
	}
	if !foundRule2 {
		t.Error("discovery did not re-find rule 2 (dedup-unique-proj)")
	}
	if !foundRule3 {
		t.Error("discovery did not re-find rule 3 (sel-idempotent)")
	}
	t.Logf("discovered %d rules at size <= 2", len(res.Rules))
}

// TestSMTRelaxesBeyondAlgebraic pins the two size-3 pairs where the SMT
// fallback of DefaultPairProver relaxes a rule further than the algebraic
// path can: both provers make the same 38 calls and find three rules, but
// only the full prover drops Unique(r0,a0) from the second one. These are
// the only rules on which the two provers' size-3 listings differ.
func TestSMTRelaxesBeyondAlgebraic(t *testing.T) {
	in := func(i int) *template.Node { return template.Input(rsym(i)) }
	common := []string{
		"{RelEq(r0,r2), NotNull(r2,a0), Unique(r2,a1), RefAttrs(r2,a0,r1,a1)}",
		"", // the rule the provers disagree on
		"{NotNull(r2,a1), Unique(r2,a1), AttrsEq(a0,a1), RelEq(r0,r2), RelEq(r1,r2)}",
	}
	want := map[string]string{
		"algebraic": "{NotNull(r0,a0), Unique(r0,a0), AttrsEq(a0,a1), RelEq(r0,r2), RelEq(r0,r1)}",
		"full":      "{NotNull(r0,a0), AttrsEq(a0,a1), RelEq(r0,r2), RelEq(r0,r1)}",
	}
	provers := map[string]PairProverFactory{"algebraic": AlgebraicPairProver, "full": DefaultPairProver}
	dest := template.Dedup(in(2))
	for _, src := range []*template.Node{
		template.Dedup(template.InSub(asym(0), in(0), template.Proj(asym(1), in(1)))),
		template.InSub(asym(0), template.Dedup(in(0)), template.Proj(asym(1), in(1))),
	} {
		for name, prover := range provers {
			rules, stats := RunPair(context.Background(), src, dest, Options{PairProver: prover})
			if stats.ProverCalls != 38 {
				t.Errorf("%s => %s, %s prover: %d calls, want 38", src, dest, name, stats.ProverCalls)
			}
			var got []string
			for _, r := range rules {
				got = append(got, r.Constraints.String())
			}
			exp := append([]string(nil), common...)
			exp[1] = want[name]
			if strings.Join(got, "\n") != strings.Join(exp, "\n") {
				t.Errorf("%s => %s, %s prover:\n got %q\nwant %q", src, dest, name, got, exp)
			}
		}
	}
}
