package verify

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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

	env := buildEnv(cl, u)

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

// debugProgress prints each fuzz case label as it starts; flip on when
// hunting a slow or diverging case.
const debugProgress = false

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
	if debugProgress {
		fmt.Printf("case %s\n", label)
	}
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

// fuzzCaseBudget is the wall-clock watchdog per fuzz case. Some random
// constraint subsets send the (seed) normalizer's rewrite loop into
// unbounded tuple growth — a pre-existing pathology on inputs the pipeline's
// own search never generates (it searches down from filtered, non-conflicting
// closures). Cases that exceed the budget are skipped with a log; the
// corpus itself stays seed-deterministic.
const fuzzCaseBudget = 10 * time.Second

// checkWithWatchdog runs checkAgainstReference under fuzzCaseBudget. It
// reports false when the case was abandoned — the caller must then drop the
// rest of the cases sharing this PairContext, since the abandoned goroutine
// may still be using it.
func checkWithWatchdog(t *testing.T, pc *PairContext, src, dest *template.Node, cs *constraint.Set, maxNodes int, label string) bool {
	t.Helper()
	type verdict struct{ want, got Report }
	done := make(chan verdict, 1)
	opts := propertyOptions(maxNodes)
	go func() {
		want := referenceVerify(src, dest, cs, opts)
		got := pc.VerifyOpts(cs, opts)
		done <- verdict{want, got}
	}()
	if debugProgress {
		fmt.Printf("case %s\n", label)
	}
	select {
	case v := <-done:
		if v.got.Outcome != v.want.Outcome || v.got.Method != v.want.Method {
			t.Errorf("%s under %s:\n  reference: %s/%s (%s)\n  interned:  %s/%s (%s)",
				label, cs,
				v.want.Outcome, v.want.Method, v.want.Detail,
				v.got.Outcome, v.got.Method, v.got.Detail)
		}
		return true
	case <-time.After(fuzzCaseBudget):
		t.Logf("skipping %s: exceeded %v (pathological normalization input)", label, fuzzCaseBudget)
		return false
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

// fuzzSubset draws a random large subset of cstar: the relaxation search
// walks down from the full closure, so near-complete sets are the
// distribution the per-pair memo actually sees. Like the pipeline's
// sourceVariants, it keeps at most one attribute-source choice
// (SubAttrs(a, a_r)) per attribute symbol — conflicting source assignments
// are outside the search envelope and can send the normalizer's rewrite
// loop into unbounded tuple growth.
func fuzzSubset(rng *rand.Rand, cstar []constraint.C) *constraint.Set {
	sourceChosen := map[template.Sym]bool{}
	subKept := map[[2]template.Sym]bool{}
	refKept := map[[2]template.Sym]bool{}
	var subset []constraint.C
	for _, c := range cstar {
		if c.Kind == constraint.RefAttrs {
			// At most one FK target per referencing column and no mutual
			// references — the pipeline's filterRefAttrs keeps only
			// join-hinted FKs, which satisfy both.
			from := [2]template.Sym{c.Syms[0], c.Syms[1]}
			back := [2]template.Sym{c.Syms[2], c.Syms[3]}
			if refKept[from] || refKept[back] || rng.Intn(2) == 0 {
				continue
			}
			refKept[from] = true
			subset = append(subset, c)
			continue
		}
		if c.Kind == constraint.SubAttrs {
			if c.Syms[1].Kind == template.KAttrsOf {
				// At most one attribute-source choice per attribute.
				if sourceChosen[c.Syms[0]] || rng.Intn(2) == 0 {
					continue
				}
				sourceChosen[c.Syms[0]] = true
			} else {
				// No SubAttrs 2-cycles between plain attribute symbols.
				if subKept[[2]template.Sym{c.Syms[1], c.Syms[0]}] || rng.Intn(4) == 0 {
					continue
				}
				subKept[[2]template.Sym{c.Syms[0], c.Syms[1]}] = true
			}
			subset = append(subset, c)
			continue
		}
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
// search. The seed is fixed, so the corpus is deterministic. (Arbitrary
// size-2 pairs are excluded on cost, not correctness: the non-interned
// reference re-normalizes from scratch per call, and degenerate pairs the
// pipeline's pair filter would never try can take minutes each.)
func TestPairContextMatchesReferenceFuzzed(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzed differential pass is slow")
	}
	if raceEnabled {
		t.Skip("single-threaded differential; race detector adds only slowdown")
	}
	rng := rand.New(rand.NewSource(20260806))
	// Both paths share the node budget, so tightening it below the
	// pipeline's 20000 keeps the equivalence property while bounding the
	// cost of rejected proofs.
	const maxNodes = 4000
	const setsPerPair = 3

	skips := 0
	const maxSkips = 4 // each skip burns fuzzCaseBudget and leaks a worker

	for _, r := range rules.All() {
		if skips >= maxSkips {
			break
		}
		pc := NewPairContext(r.Src, r.Dest)
		cstar := constraint.Enumerate(r.Src, r.Dest).Items()
		for j := 0; j < setsPerPair; j++ {
			cs := fuzzSubset(rng, cstar)
			label := fmt.Sprintf("rule %d (%s) fuzz set %d", r.No, r.Name, j)
			if !checkWithWatchdog(t, pc, r.Src, r.Dest, cs, maxNodes, label) {
				skips++
				break // the abandoned goroutine still owns this pc
			}
		}
	}

	small := template.Enumerate(template.EnumOptions{MaxSize: 1})
	for i, src := range small {
		for j, dest := range small {
			if i == j || skips >= maxSkips {
				continue
			}
			pc := NewPairContext(src, dest)
			cstar := constraint.Enumerate(src, dest).Items()
			cs := fuzzSubset(rng, cstar)
			label := fmt.Sprintf("pair (%s => %s)", src, dest)
			if !checkWithWatchdog(t, pc, src, dest, cs, maxNodes, label) {
				skips++
			}
		}
	}
	if skips > 0 {
		t.Logf("%d fuzz cases skipped on the %v watchdog", skips, fuzzCaseBudget)
	}
}
