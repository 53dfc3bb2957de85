package smt_test

import (
	"context"
	"runtime/debug"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/pipeline"
	"wetune/internal/racetest"
	"wetune/internal/smt"
	"wetune/internal/template"
	"wetune/internal/verify"
)

func sym(k template.SymKind, id int) template.Sym { return template.Sym{Kind: k, ID: id} }
func rel(id int) *template.Node                   { return template.Input(sym(template.KRel, id)) }
func attrs(id int) template.Sym                   { return sym(template.KAttrs, id) }
func pred(id int) template.Sym                    { return sym(template.KPred, id) }

// discoveryOptions are pipeline.DefaultPairProver's, without the wall clock.
func discoveryOptions() verify.Options {
	opts := verify.DefaultOptions()
	opts.SMT.MaxNodes = 20000
	opts.SMT.Deadline = 0
	return opts
}

// firstProbe runs the pair's relaxation until a probe's report satisfies
// want and returns that probe with the pair context that has seen it: from
// then on the context serves everything but the solve from its memo, so a
// repeat of the probe is solver time.
func firstProbe(tb testing.TB, src, dest *template.Node, want func(verify.Report) bool) (*verify.PairContext, *constraint.Set) {
	tb.Helper()
	opts := discoveryOptions()
	pc := verify.NewPairContext(src, dest)
	var probe *constraint.Set
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pipeline.RunPair(ctx, src, dest, pipeline.Options{
		PairProver: func(_, _ *template.Node) pipeline.Prover {
			return func(_ context.Context, _, _ *template.Node, cs *constraint.Set) bool {
				rep := pc.VerifyOpts(cs, opts)
				if probe == nil && want(rep) {
					// A prover must not keep cs (pipeline.Prover): copy it.
					probe = constraint.NewSet(cs.Items()...)
					cancel()
				}
				return rep.Outcome == verify.Verified
			}
		},
	})
	if probe == nil {
		tb.Fatal("no probe of the pair is of the wanted kind")
	}
	return pc, probe
}

// budgetExhaustedProbe is the first probe of the size-2 pair
// Sel(InSub) => InSub(Sel, ·) whose SMT search runs into the 20000-node
// budget — the kind of call that carries discovery's prover time.
func budgetExhaustedProbe(tb testing.TB) (*verify.PairContext, *constraint.Set) {
	src := template.Sel(pred(0), attrs(0), template.InSub(attrs(1), rel(0), rel(1)))
	dest := template.InSub(attrs(2), template.Sel(pred(1), attrs(3), rel(2)), rel(3))
	return firstProbe(tb, src, dest, func(rep verify.Report) bool {
		return rep.Stats.StoppedBy == smt.StopNodes
	})
}

// atomCapProbe is the first probe of the size-2 pair Proj(IJoin) => Proj
// that the atom cap turns away — the heaviest of the run's 214 such calls,
// 918 instances and 7082 atoms when formulas were grounded in full before
// being counted. A refused call's cost is all grounding.
func atomCapProbe(tb testing.TB) (*verify.PairContext, *constraint.Set) {
	src := template.Proj(attrs(0), template.Join(template.OpIJoin, attrs(1), attrs(2), rel(0), rel(1)))
	dest := template.Proj(attrs(3), rel(2))
	return firstProbe(tb, src, dest, func(rep verify.Report) bool {
		return rep.Stats.StoppedBy == smt.StopAtoms
	})
}

// BenchmarkSolveBudgetExhausted measures the DPLL(T) node: one op is a
// repeat of budgetExhaustedProbe.
func BenchmarkSolveBudgetExhausted(b *testing.B) {
	pc, probe := budgetExhaustedProbe(b)
	opts := discoveryOptions()
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		nodes += pc.VerifyOpts(probe, opts).Stats.Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// BenchmarkSolveAtomCapRefused measures a refusal: one op is a repeat of
// atomCapProbe.
func BenchmarkSolveAtomCapRefused(b *testing.B) {
	pc, probe := atomCapProbe(b)
	opts := discoveryOptions()
	b.ReportAllocs()
	b.ResetTimer()
	instances := 0
	for i := 0; i < b.N; i++ {
		instances += pc.VerifyOpts(probe, opts).Stats.Instances
	}
	b.ReportMetric(float64(instances)/float64(b.N), "instances/op")
}

// TestSolveAllocBudget pins what the two benchmarks' ops allocate: a repeat
// of a probe whose search runs out of nodes, and of one the atom cap refuses.
// The pair context serves everything but the solve from its memo, so these
// are the solver's allocations on a goal it has seen before.
func TestSolveAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own, and sync.Pool drops solvers under it")
	}
	// Collector off while counting: a collection empties the sync.Pools,
	// and their refill would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := discoveryOptions()
	for _, c := range []struct {
		name   string
		probe  func(testing.TB) (*verify.PairContext, *constraint.Set)
		allocs float64
	}{
		{"node budget exhausted", budgetExhaustedProbe, 193},
		{"atom cap refused", atomCapProbe, 305},
	} {
		pc, probe := c.probe(t)
		if got := testing.AllocsPerRun(20, func() { pc.VerifyOpts(probe, opts) }); got != c.allocs {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.allocs)
		}
	}
}
