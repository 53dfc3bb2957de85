package smt_test

import (
	"context"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/pipeline"
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
func firstProbe(b *testing.B, src, dest *template.Node, want func(verify.Report) bool) (*verify.PairContext, *constraint.Set) {
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
					probe = cs
					cancel()
				}
				return rep.Outcome == verify.Verified
			}
		},
	})
	if probe == nil {
		b.Fatal("no probe of the pair is of the wanted kind")
	}
	return pc, probe
}

// BenchmarkSolveBudgetExhausted measures the DPLL(T) node: one op is the
// first probe of the size-2 pair Sel(InSub) => InSub(Sel, ·) whose SMT search
// runs into the 20000-node budget — the kind of call that carries discovery's
// prover time.
func BenchmarkSolveBudgetExhausted(b *testing.B) {
	src := template.Sel(pred(0), attrs(0), template.InSub(attrs(1), rel(0), rel(1)))
	dest := template.InSub(attrs(2), template.Sel(pred(1), attrs(3), rel(2)), rel(3))
	pc, probe := firstProbe(b, src, dest, func(rep verify.Report) bool {
		return rep.Stats.StoppedBy == smt.StopNodes
	})
	opts := discoveryOptions()
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		nodes += pc.VerifyOpts(probe, opts).Stats.Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

// BenchmarkSolveAtomCapRefused measures a refusal: one op is the first probe
// of the size-2 pair Proj(IJoin) => Proj that the atom cap turns away — the
// heaviest of the run's 214 such calls, 918 instances and 7082 atoms when
// formulas were grounded in full before being counted. A refused call's cost
// is all grounding, which is what this gates.
func BenchmarkSolveAtomCapRefused(b *testing.B) {
	src := template.Proj(attrs(0), template.Join(template.OpIJoin, attrs(1), attrs(2), rel(0), rel(1)))
	dest := template.Proj(attrs(3), rel(2))
	pc, probe := firstProbe(b, src, dest, func(rep verify.Report) bool {
		return rep.Stats.StoppedBy == smt.StopAtoms
	})
	opts := discoveryOptions()
	b.ReportAllocs()
	b.ResetTimer()
	instances := 0
	for i := 0; i < b.N; i++ {
		instances += pc.VerifyOpts(probe, opts).Stats.Instances
	}
	b.ReportMetric(float64(instances)/float64(b.N), "instances/op")
}
