package smt_test

import (
	"context"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/pipeline"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// BenchmarkSolveBudgetExhausted measures the DPLL(T) node: one op is the
// first probe of the size-2 pair Sel(InSub) => InSub(Sel, ·) whose SMT search
// runs into the 20000-node budget — the kind of call that carries discovery's
// prover time. The probe is found by running the pair's relaxation until it
// occurs; after the warm-up call the pair context serves everything but the
// solve from its memo, so ns/node is solver time.
func BenchmarkSolveBudgetExhausted(b *testing.B) {
	sym := func(k template.SymKind, id int) template.Sym { return template.Sym{Kind: k, ID: id} }
	rel := func(id int) *template.Node { return template.Input(sym(template.KRel, id)) }
	attrs := func(id int) template.Sym { return sym(template.KAttrs, id) }
	pred := func(id int) template.Sym { return sym(template.KPred, id) }
	src := template.Sel(pred(0), attrs(0), template.InSub(attrs(1), rel(0), rel(1)))
	dest := template.InSub(attrs(2), template.Sel(pred(1), attrs(3), rel(2)), rel(3))

	opts := verify.DefaultOptions()
	opts.SMT.MaxNodes = 20000
	opts.SMT.Deadline = 0
	pc := verify.NewPairContext(src, dest)
	var probe *constraint.Set
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pipeline.RunPair(ctx, src, dest, pipeline.Options{
		PairProver: func(_, _ *template.Node) pipeline.Prover {
			return func(_ context.Context, _, _ *template.Node, cs *constraint.Set) bool {
				rep := pc.VerifyOpts(cs, opts)
				if rep.Stats.Nodes > opts.SMT.MaxNodes {
					probe = cs
					cancel()
				}
				return rep.Outcome == verify.Verified
			}
		},
	})
	if probe == nil {
		b.Fatal("no probe of the pair exhausted the node budget")
	}
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		nodes += pc.VerifyOpts(probe, opts).Stats.Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}
