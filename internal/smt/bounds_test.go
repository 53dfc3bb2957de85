package smt

import (
	"context"
	"testing"
	"time"

	"wetune/internal/fol"
	"wetune/internal/uexpr"
)

// literals is a conjunction over n distinct ground atoms p0(t_i), every third
// one negated: n atoms for the grounder, satisfiable.
func literals(n int) fol.Formula {
	fs := make([]fol.Formula, n)
	for i := range fs {
		fs[i] = &fol.PredApp{Pred: psym(0), T: v(i)}
		if i%3 == 0 {
			fs[i] = &fol.Not{F: fs[i]}
		}
	}
	return fol.MkAnd(fs...)
}

// TestAtomCapBoundary pins the cap where it was: maxAtoms atoms are searched —
// verdict and node count as recorded before refusal moved into solve — one
// more is refused unsearched, by solve's streamed count.
func TestAtomCapBoundary(t *testing.T) {
	opts := Options{MaxNodes: 1 << 20, InstRounds: 1, MaxTermDepth: 2}
	res, st := Solve(literals(maxAtoms), opts)
	if want := (Stats{Nodes: 535, Atoms: 400, Decisions: 400, Backtracks: 134}); res != Sat || st != want {
		t.Errorf("%d atoms: %s %+v, want sat %+v", maxAtoms, res, st, want)
	}
	res, st = Solve(literals(maxAtoms+1), opts)
	if want := (Stats{Atoms: 401, StoppedBy: StopAtoms}); res != Unknown || st != want {
		t.Errorf("%d atoms: %s %+v, want unknown %+v", maxAtoms+1, res, st, want)
	}
}

// overPool is a universal over (x, y) beside n ground atoms p0(t_i), whose
// constants are the instantiation pool: n*n instances, each of which adds
// the atom a0(x) = a1(y) when fresh is set and only disjoins atoms already
// there when not (p0(x) => p0(y), which the mixed literals contradict).
func overPool(n int, fresh bool) fol.Formula {
	x, y := v(1000), v(1001)
	var body fol.Formula = fol.MkOr(
		&fol.Not{F: &fol.PredApp{Pred: psym(0), T: x}},
		&fol.PredApp{Pred: psym(0), T: y})
	if fresh {
		body = &fol.TupleEq{L: &uexpr.TAttr{Attrs: asym(0), T: x}, R: &uexpr.TAttr{Attrs: asym(1), T: y}}
	}
	return fol.MkAnd(literals(n), &fol.Forall{Vars: []*uexpr.TVar{x, y}, Body: body})
}

// TestAtomCapStopsInstantiation: a universal whose instances push the atom
// count over the cap is abandoned mid-stream, one that stays under it is
// instantiated in full.
func TestAtomCapStopsInstantiation(t *testing.T) {
	opts := Options{MaxNodes: 1 << 20, InstRounds: 1, MaxTermDepth: 0}
	res, st := Solve(overPool(40, true), opts)
	if want := maxAtoms + 1 - 40; res != Unknown || st.StoppedBy != StopAtoms || st.Instances != want || st.Atoms != maxAtoms+1 {
		t.Errorf("growing universal: %s %+v, want unknown by atoms after %d instances", res, st, want)
	}
	res, st = Solve(overPool(40, false), opts)
	if res != Unsat || st.StoppedBy != StopNone || st.Instances != 1600 || st.Atoms != 40 {
		t.Errorf("flat universal: %s %+v, want unsat from all 1600 instances over 40 atoms", res, st)
	}
}

// expiringCtx reports cancellation from its (after+1)-th Err call on: a clock
// that runs out between two looks at it.
type expiringCtx struct {
	context.Context
	after int
}

func (c *expiringCtx) Err() error {
	if c.after--; c.after < 0 {
		return context.Canceled
	}
	return nil
}

// TestClockCheckedInsideExpansions: no quantifier expansion — solve's rounds,
// prep's embedded universals, the existential instances of an ITE condition —
// outruns the clock by more than 64 instances.
func TestClockCheckedInsideExpansions(t *testing.T) {
	x, y := v(1000), v(1001)
	xy := []*uexpr.TVar{x, y}
	fresh := &fol.TupleEq{L: &uexpr.TAttr{Attrs: asym(0), T: x}, R: &uexpr.TAttr{Attrs: asym(1), T: y}}
	opts := Options{MaxNodes: 1 << 20, InstRounds: 1, MaxTermDepth: 0}

	// solve: 50*50 = 2500 instances in the first round.
	big := fol.MkAnd(literals(50), &fol.Forall{Vars: xy, Body: fresh})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, o := range map[string]Options{
		"cancelled before":  {Ctx: cancelled},
		"deadline 1ns":      {Deadline: time.Nanosecond},
		"cancelled mid-way": {Ctx: &expiringCtx{Context: context.Background(), after: 1}},
	} {
		o.MaxNodes, o.InstRounds = opts.MaxNodes, opts.InstRounds
		res, st := Solve(big, o)
		if res != Unknown || st.StoppedBy != StopDeadline || st.Instances > 64 {
			t.Errorf("solve, %s: %s %+v, want unknown by deadline within 64 instances", name, res, st)
		}
	}

	// prep and existInstances: 30*30 = 900 and 20*20 = 400 instances, reached
	// after solve's own look at the clock. Every instance makes an atom, so
	// without the inner look the atom cap would answer instead.
	embedded := fol.MkAnd(literals(30), fol.MkOr(
		&fol.PredApp{Pred: psym(1), T: v(0)}, &fol.Forall{Vars: xy, Body: fresh}))
	inCond := fol.MkAnd(literals(20), &fol.IntGt0{T: &fol.ITE{
		Cond: &fol.Exists{Vars: xy, Body: fresh}, Then: &fol.IntConst{N: 1}, Else: &fol.IntConst{N: 0}}})
	for name, f := range map[string]fol.Formula{"prep": embedded, "existInstances": inCond} {
		o := opts
		o.Ctx = &expiringCtx{Context: context.Background(), after: 1}
		res, st := Solve(f, o)
		if res != Unknown || st.StoppedBy != StopDeadline || st.Atoms > 30+2+64 {
			t.Errorf("%s: %s %+v, want unknown by deadline within 64 instances", name, res, st)
		}
	}
}
