package rewrite

import (
	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/spes"
	"wetune/internal/sql"
	"wetune/internal/verify"
)

// Reduce removes redundant rules (§7): a rule R is reducible under a rule set
// when rewriting R's own minimal probing query without R produces the same
// result as with it — some composition of the remaining rules covers R. The
// probing query is R's source template concretized with the integrity
// constraints its rule demands (Figure 7).
func Reduce(rs []rules.Rule) (kept []rules.Rule, removed []rules.Rule) {
	kept = append([]rules.Rule{}, rs...)
	for i := 0; i < len(kept); i++ {
		r := kept[i]
		rest := make([]rules.Rule, 0, len(kept)-1)
		rest = append(rest, kept[:i]...)
		rest = append(rest, kept[i+1:]...)
		if reducible(r, kept, rest) {
			removed = append(removed, r)
			kept = rest
			i--
		}
	}
	return kept, removed
}

// reducible checks Rewrite(all, q) == Rewrite(all - {R}, q) on R's probing
// query.
func reducible(r rules.Rule, all, rest []rules.Rule) bool {
	cSrc, _, err := spes.Concretize(r.Src, r.Dest, r.Constraints)
	if err != nil {
		return false
	}
	probe := cSrc.Plan
	schema := cSrc.Schema

	full := NewRewriter(all, schema)
	without := NewRewriter(rest, schema)
	gotFull, appliedFull, _ := full.Search(probe, Options{})
	gotRest, _, _ := without.Search(probe, Options{})
	if len(appliedFull) == 0 {
		// The rule does not even fire on its own probe (constraints depend
		// on data-specific facts the probe schema cannot encode); keep it.
		return false
	}
	if plan.Fingerprint(gotFull) == plan.Fingerprint(gotRest) {
		return true
	}
	// The two rewrites produced different plans: R is still redundant when the
	// remaining rules reached an equally small, provably equivalent result by
	// another route. The size guard is essential — any two correct rewrites of
	// the probe are equivalent, so equivalence alone would reduce everything;
	// a larger gotRest means removing R loses optimization power.
	if plan.Size(gotRest) > plan.Size(gotFull) {
		return false
	}
	return provablyEquivalent(gotFull, gotRest, schema)
}

// provablyEquivalent abstracts the plan pair into a candidate rule and proves
// it with the algebraic path of the built-in verifier. Reductions rarely
// reach it (the probe rewrites usually coincide), so verdicts are not cached.
func provablyEquivalent(a, b plan.Node, schema *sql.Schema) bool {
	src, dest, cs, err := verify.AbstractPair(a, b, schema)
	if err != nil {
		return false
	}
	opts := verify.DefaultOptions()
	opts.SkipSMT = true // algebraic only: a rule not cheaply proved redundant stays
	return verify.VerifyOpts(src, dest, cs, opts).Outcome == verify.Verified
}
