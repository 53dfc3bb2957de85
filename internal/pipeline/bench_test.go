package pipeline

import (
	"context"
	"runtime/debug"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/racetest"
	"wetune/internal/rules"
	"wetune/internal/template"
)

// coldSearch returns one full cold-cache relaxation search on a fixed
// template pair — the unit of work the discovery pipeline repeats for every
// pair. The pair comes from the rule library, so the search is known to reach
// the SMT prover rather than dying in the algebraic fast path. Each call gets
// a fresh proof cache (its solve memo), so nothing is amortized across calls.
func coldSearch(tb testing.TB) func() {
	tb.Helper()
	r, ok := rules.ByNo(1)
	if !ok {
		tb.Fatal("rule 1 missing from the library")
	}
	search := func() int64 {
		opts := Options{Cache: NewProofCache()}
		opts.fill()
		ct := newCounters(opts.Metrics)
		searchPair(context.Background(), r.Src, r.Dest, opts, ct)
		return ct.proverCalls.Load()
	}
	if search() == 0 {
		tb.Fatal("search made no prover calls; it would measure nothing")
	}
	return func() { search() }
}

// minimization returns one deletion-based minimization — candidate sets,
// implication tests, memo keys — on the first provable start set of
// the size-2 pair Sel(InSub) => InSub(Sel, ·). The verdicts are recorded from
// the real prover once and replayed in call order, so the trajectory is the
// real one and the prover costs nothing.
func minimization(tb testing.TB) func() {
	tb.Helper()
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
	ct := newCounters(opts.Metrics)
	var start *constraint.Set
	cstar := constraint.Enumerate(src, dest)
	for _, v := range sourceVariants(cstar, src, dest) {
		if real(context.Background(), src, dest, v) {
			start = v
			break
		}
	}
	if start == nil {
		tb.Fatal("no provable start set")
	}
	minimize := func() bool {
		replay = 0
		_, ok := newRelaxer(context.Background(), src, dest, opts, ct).minimize(start, 0)
		return ok
	}
	if !minimize() { // records the verdicts
		tb.Fatal("minimization ran out of budget")
	}
	return func() { minimize() }
}

func BenchmarkSearchPairCold(b *testing.B) {
	search := coldSearch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		search()
	}
}

func BenchmarkMinimize(b *testing.B) {
	minimize := minimization(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		minimize()
	}
}

// TestRelaxationAllocBudget pins what the two benchmarks' ops allocate: a
// cold searchPair on library rule 1 and one replayed minimization. Both
// counts are exact; a change to relaxation, the proof cache or the prover
// underneath moves them and re-pins them here with its reason. They fell
// from 6,507 and 91 when the run-wide verdict cache went: a pair no longer
// renames both templates into a fingerprint prefix, and the minimization no
// longer builds a proof cache it never reads.
func TestRelaxationAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own, and sync.Pool drops scratch under it")
	}
	// Collector off while counting: a collection empties the sync.Pools,
	// and their refill would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name   string
		op     func(testing.TB) func()
		allocs float64
	}{
		{"searchPair cold (rule 1)", coldSearch, 6454},
		{"minimize", minimization, 31},
	} {
		if got := testing.AllocsPerRun(20, c.op(t)); got != c.allocs {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.allocs)
		}
	}
}
