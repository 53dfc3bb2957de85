package pipeline

import (
	"context"
	"testing"
	"time"

	"wetune/internal/constraint"
	"wetune/internal/rules"
	"wetune/internal/template"
)

// BenchmarkSearchPairCold measures one full cold-cache relaxation search on a
// fixed template pair — the unit of work the discovery pipeline repeats for
// every pair. The pair comes from the rule library, so the search is known to
// reach the SMT prover rather than dying in the algebraic fast path. Each
// iteration gets a fresh proof cache, so nothing is amortized across
// iterations.
func BenchmarkSearchPairCold(b *testing.B) {
	r, ok := rules.ByNo(1)
	if !ok {
		b.Fatal("rule 1 missing from the library")
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		opts := Options{Cache: NewProofCache()}
		opts.fill()
		ct := &counters{start: time.Now(), cache: opts.Cache}
		searchPair(context.Background(), r.Src, r.Dest, opts, ct)
		if n == 0 && ct.proverCalls.Load() == 0 {
			b.Fatal("search made no prover calls; benchmark would measure nothing")
		}
	}
}

// BenchmarkMinimize measures the relaxer's own work in one deletion-based
// minimization — candidate sets, implication tests, memo and cache keys — on
// the first provable start set of the size-2 pair Sel(InSub) => InSub(Sel, ·).
// The verdicts are recorded from the real prover once and replayed in call
// order, so the trajectory is the real one and the prover costs nothing.
func BenchmarkMinimize(b *testing.B) {
	sym := func(k template.SymKind, id int) template.Sym { return template.Sym{Kind: k, ID: id} }
	rel := func(id int) *template.Node { return template.Input(sym(template.KRel, id)) }
	src := template.Sel(sym(template.KPred, 0), sym(template.KAttrs, 0),
		template.InSub(sym(template.KAttrs, 1), rel(0), rel(1)))
	dest := template.InSub(sym(template.KAttrs, 2),
		template.Sel(sym(template.KPred, 1), sym(template.KAttrs, 3), rel(2)), rel(3))

	// The i-th prover call of a minimization gets the i-th recorded verdict;
	// calls past the record ask the real prover and extend it.
	var verdicts []bool
	replay := 0
	real := DefaultPairProver(src, dest)
	opts := Options{PairProver: func(_, _ *template.Node) Prover {
		return func(ctx context.Context, s, d *template.Node, cs *constraint.Set) bool {
			if replay == len(verdicts) {
				verdicts = append(verdicts, real(ctx, s, d, cs))
			}
			replay++
			return verdicts[replay-1]
		}
	}}
	opts.fill()
	ct := &counters{start: time.Now()}
	var start *constraint.Set
	cstar := filterRefAttrs(constraint.Enumerate(src, dest), src, dest)
	for _, v := range sourceVariants(cstar, src, dest) {
		if real(context.Background(), src, dest, v) {
			start = v
			break
		}
	}
	if start == nil {
		b.Fatal("no provable start set")
	}
	minimize := func() {
		replay = 0
		opts.Cache = NewProofCache()
		if _, ok := newRelaxer(context.Background(), src, dest, opts, ct, opts.Metrics).minimize(start, 0); !ok {
			b.Fatal("minimization ran out of budget")
		}
	}
	minimize() // records the verdicts
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		minimize()
	}
}
