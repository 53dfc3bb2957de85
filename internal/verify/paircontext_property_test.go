package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/fol"
	"wetune/internal/rules"
	"wetune/internal/smt"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// referenceVerify is a line-for-line copy of the pre-interning verifier: it
// substitutes representatives into the templates, re-translates them on every
// call, and hands the solver un-interned formulas (smt with a nil Pool builds
// a private pool per call, so nothing is shared between calls). It is kept
// as the differential oracle for the PairContext fast path: the two must
// agree on every (pair, constraint set) the search can visit.
func referenceVerify(src, dest *template.Node, cs *constraint.Set, opts Options) Report {
	cl := constraint.Closure(cs)
	u := constraint.Unify(cl)
	reps := u.Reps()
	srcU := src.Substitute(reps)
	destU := dest.Substitute(reps)

	env := buildEnv(u)

	es, vs, err := uexpr.Translate(srcU)
	if err != nil {
		return Report{Outcome: Unsupported, Detail: err.Error()}
	}
	ed, vd, err := uexpr.Translate(destU)
	if err != nil {
		return Report{Outcome: Unsupported, Detail: err.Error()}
	}
	ed = uexpr.SubstTuple(ed, vd.ID, vs)

	ns := uexpr.Normalize(es, env)
	nd := uexpr.Normalize(ed, env)

	if !opts.SkipAlgebraic && ns.Canon() == nd.Canon() {
		return Report{Outcome: Verified, Method: MethodAlgebraic}
	}
	if opts.SkipSMT {
		return Report{Outcome: Rejected, Detail: "algebraic forms differ"}
	}

	fv := fol.NewFreshVars(1 << 16)
	residual := residualConstraints(cl, reps)
	hyp, err := fol.SetToFOL(residual, fv)
	if err != nil {
		return Report{Outcome: Rejected, Detail: err.Error()}
	}
	candidates, err := fol.EquationCandidates(ns, nd, vs)
	if err != nil || len(candidates) == 0 {
		return Report{Outcome: Rejected, Detail: "no FOL translation (footnote 3)"}
	}
	var last smt.Stats
	for _, goal := range candidates {
		ok, st := smt.ProveValid(hyp, goal, opts.SMT)
		last = st
		if ok {
			return Report{Outcome: Verified, Method: MethodSMT, Stats: st}
		}
	}
	return Report{Outcome: Rejected, Stats: last, Detail: "SMT could not prove UNSAT"}
}

// residualConstraints keeps the non-equality constraints of a closure
// (equalities are baked into the templates by substitution) with symbols
// mapped to representatives, deduplicated: the reading of the closure that
// Unification.Residual gives without building it.
func residualConstraints(cl *constraint.Set, reps map[template.Sym]template.Sym) *constraint.Set {
	out := make([]constraint.C, 0, cl.Len())
	for _, c := range cl.Items() {
		switch c.Kind {
		case constraint.RelEq, constraint.AttrsEq, constraint.PredEq, constraint.AggrEq:
			continue
		}
		out = append(out, c.Rename(reps))
	}
	return constraint.NewSet(out...)
}

func propertyOptions(maxNodes int) Options {
	opts := DefaultOptions()
	opts.SMT.MaxNodes = maxNodes
	// The wall-clock deadline must be off for a differential test: the
	// interned path is faster, so a 2s deadline could let it finish a proof
	// the reference path gets cut off from. With Deadline 0 both paths do
	// the identical bounded amount of logical work (MaxNodes, InstRounds).
	opts.SMT.Deadline = 0
	return opts
}

func checkAgainstReference(t *testing.T, pc *PairContext, src, dest *template.Node, cs *constraint.Set, maxNodes int, label string) {
	t.Helper()
	opts := propertyOptions(maxNodes)
	want := referenceVerify(src, dest, cs, opts)
	got := pc.VerifyOpts(cs, opts)
	if got.Outcome != want.Outcome || got.Method != want.Method {
		t.Errorf("%s under %s:\n  reference: %s/%s (%s)\n  interned:  %s/%s (%s)",
			label, cs,
			want.Outcome, want.Method, want.Detail,
			got.Outcome, got.Method, got.Detail)
	}
}

// TestPairContextMatchesReferenceOnTable7 proves every rule of the seed rule
// library identically through the interned PairContext path and the
// non-interned reference path.
func TestPairContextMatchesReferenceOnTable7(t *testing.T) {
	for _, r := range rules.All() {
		pc := NewPairContext(r.Src, r.Dest)
		label := fmt.Sprintf("rule %d (%s)", r.No, r.Name)
		checkAgainstReference(t, pc, r.Src, r.Dest, r.Constraints, 20000, label)
	}
}

// fuzzSubset draws a random large subset of cstar, each constraint kept with
// probability 3/4: the relaxation search walks down from the full closure, so
// near-complete sets are the distribution the per-pair memo actually sees.
func fuzzSubset(rng *rand.Rand, cstar []constraint.C) *constraint.Set {
	var subset []constraint.C
	for _, c := range cstar {
		if rng.Intn(4) != 0 {
			subset = append(subset, c)
		}
	}
	return constraint.NewSet(subset...)
}

// TestPairContextMatchesReferenceFuzzed drives both paths over seeded-random
// constraint subsets of (a) every rule-library pair and (b) every ordered
// pair of size-1 templates, reusing one PairContext per pair so the
// closure-keyed memo and precomputed NNF skeletons are exercised across
// several constraint sets — exactly the access pattern of the relaxation
// search. The seed is fixed, so the corpus is deterministic, and every case
// it draws is checked: the normalizer terminates on any constraint subset.
func TestPairContextMatchesReferenceFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	// Both paths share the node budget, so tightening it below the
	// pipeline's 20000 keeps the equivalence property while bounding the
	// cost of rejected proofs.
	const maxNodes = 4000
	const setsPerPair = 3

	for _, r := range rules.All() {
		pc := NewPairContext(r.Src, r.Dest)
		cstar := constraint.Enumerate(r.Src, r.Dest).Items()
		for j := 0; j < setsPerPair; j++ {
			label := fmt.Sprintf("rule %d (%s) fuzz set %d", r.No, r.Name, j)
			checkAgainstReference(t, pc, r.Src, r.Dest, fuzzSubset(rng, cstar), maxNodes, label)
		}
	}

	small := template.Enumerate(template.EnumOptions{MaxSize: 1})
	for i, src := range small {
		for j, dest := range small {
			if i == j {
				continue
			}
			pc := NewPairContext(src, dest)
			cstar := constraint.Enumerate(src, dest).Items()
			label := fmt.Sprintf("pair (%s => %s)", src, dest)
			checkAgainstReference(t, pc, src, dest, fuzzSubset(rng, cstar), maxNodes, label)
		}
	}
}
