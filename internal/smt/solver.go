// Package smt implements the small SMT solver backing WeTune's built-in
// verifier (§5.1.2). It substitutes for Z3 (no mature Go bindings exist; the
// module is offline) and is specialized to the fragment produced by the
// Table 4/5 translations:
//
//   - tuple-sorted uninterpreted functions (attribute lists) decided by
//     congruence closure;
//   - uninterpreted predicates and IsNull;
//   - natural-number relation multiplicities compared against 0/1, decided by
//     a conservative monomial analysis;
//   - universal quantifiers handled by bounded ground instantiation, which is
//     sound for UNSAT (instances are logical consequences, so if a finite set
//     of instances is inconsistent the original formula is too).
//
// Exactly like the paper's use of Z3: UNSAT of the negated goal certifies the
// rule; SAT or Unknown rejects it (conservative).
//
// All formulas, tuple terms and integer terms inside the solver are
// hash-consed through an intern.Pool: structural equality is pointer
// equality, memo tables key on pointers, and every ordering decision sorts by
// the pool's cached canonical strings (byte-identical to the historical
// String()-based keys), keeping verdicts independent of pool history.
package smt

import (
	"context"
	"sort"
	"time"

	"wetune/internal/fol"
	"wetune/internal/intern"
	"wetune/internal/obs"
	"wetune/internal/uexpr"
)

// Result is the solver verdict.
type Result int

// Solver verdicts.
const (
	Unknown Result = iota
	Sat
	Unsat
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case Unknown:
		return "unknown"
	}
	return "?"
}

// Options bounds the search.
type Options struct {
	// MaxNodes caps DPLL branch nodes; exceeded -> Unknown (a "timeout").
	MaxNodes int
	// InstRounds caps quantifier-instantiation rounds.
	InstRounds int
	// MaxTermDepth caps generated ground tuple terms.
	MaxTermDepth int
	// Deadline is a wall-clock cap; exceeded -> Unknown. Mirrors the paper's
	// per-call Z3 timeout (about 50ms per potential rule on their hardware).
	Deadline time.Duration
	// Ctx, when non-nil, is checked in the solver's main loops (DPLL nodes,
	// instantiation rounds, theory case splits): cancellation interrupts an
	// in-flight proof with Unknown instead of running to the next boundary.
	// It also carries the tracing span (if any) the solve attaches to.
	Ctx context.Context
	// Metrics is the registry proof durations, outcome counters and DPLL
	// decision/backtrack counts are recorded in; nil uses obs.Default().
	Metrics *obs.Registry
	// Pool is the hash-consing arena the solve interns into. Sharing a pool
	// across the many Solve calls of one verification context amortizes
	// canonicalization; a pool is single-goroutine, so it must never be
	// shared across workers. nil allocates a private pool per call.
	Pool *intern.Pool
}

// DefaultOptions mirror the paper's per-rule verification budget.
func DefaultOptions() Options {
	return Options{MaxNodes: 200000, InstRounds: 2, MaxTermDepth: 3, Deadline: 2 * time.Second}
}

// Stats reports solver effort.
type Stats struct {
	Nodes     int
	Instances int
	Atoms     int
	// Decisions counts DPLL branch points (an open atom was picked and
	// assigned); Backtracks counts abandoned branch values. A proof with many
	// backtracks per decision is thrashing in the theory solver.
	Decisions  int
	Backtracks int
	// TimedOut reports that the clock — Options.Deadline or a cancelled
	// Options.Ctx — stopped part of the search. Unlike the node budget, the
	// clock depends on the machine and its load: an Unknown with TimedOut set
	// may be a proof on a faster run.
	TimedOut bool
}

// Metric names recorded by the solver (see internal/obs and DESIGN.md).
const (
	metricProofSeconds = "smt_proof_seconds"
	metricDecisions    = "smt_decisions"
	metricBacktracks   = "smt_backtracks"
	metricInstances    = "smt_instances"
	metricOutcome      = "smt_outcome_" // + sat|unsat|unknown
	// Every unknown is also counted by cause: _deadline when the clock cut
	// the search (Stats.TimedOut), _budget when a structural bound did
	// (MaxNodes, the atom, instance and case-split caps).
	metricUnknownBudget   = metricOutcome + "unknown_budget"
	metricUnknownDeadline = metricOutcome + "unknown_deadline"
)

// Solve decides satisfiability of a closed formula. Every call records its
// duration, outcome and DPLL effort in the metrics registry; Unknown covers
// both node-budget and wall-clock "timeouts" (the paper's dominant cost, so
// the timeout counters are the first thing to check when a run stalls), split
// by cause in smt_outcome_unknown_budget / _deadline.
func Solve(f fol.Formula, opts Options) (Result, Stats) {
	return run(f, opts, false)
}

// SolveNNF is Solve for a formula that is already in negation normal form
// (e.g. the precomputed goal skeletons of verify's per-pair context); the
// NNF pass is skipped. If f is already interned in opts.Pool the
// canonicalization is a single map hit.
func SolveNNF(f fol.Formula, opts Options) (Result, Stats) {
	return run(f, opts, true)
}

func run(f fol.Formula, opts Options, isNNF bool) (Result, Stats) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	_, sp := obs.ChildSpan(opts.Ctx, "smt.solve")
	pool := opts.Pool
	if pool == nil {
		pool = intern.NewPool()
	}
	s := &solver{opts: opts, pool: pool, skolemBase: 1 << 24, start: time.Now()}
	var nf fol.Formula
	if isNNF {
		nf = pool.Formula(f)
	} else {
		nf = nnfIn(pool, f, true)
	}
	res, st := s.solve(nf)
	reg.Histogram(metricProofSeconds).Observe(time.Since(s.start))
	reg.Counter(metricOutcome + res.String()).Inc()
	if res == Unknown && st.TimedOut {
		reg.Counter(metricUnknownDeadline).Inc()
	} else if res == Unknown {
		reg.Counter(metricUnknownBudget).Inc()
	}
	reg.Counter(metricDecisions).Add(int64(st.Decisions))
	reg.Counter(metricBacktracks).Add(int64(st.Backtracks))
	reg.Counter(metricInstances).Add(int64(st.Instances))
	pool.FlushMetrics(reg)
	sp.SetNote("%s nodes=%d decisions=%d backtracks=%d", res, st.Nodes, st.Decisions, st.Backtracks)
	sp.End()
	return res, st
}

// ProveValid reports whether hypotheses => goal is valid, by checking
// hypotheses AND NOT goal for unsatisfiability.
func ProveValid(hypotheses, goal fol.Formula, opts Options) (bool, Stats) {
	res, st := Solve(fol.MkAnd(hypotheses, &fol.Not{F: goal}), opts)
	return res == Unsat, st
}

// NNF returns f in negation normal form, interned in p. Combined with
// SolveNNF this lets callers precompute the constraint-independent side of a
// proof obligation once and reuse it across many solver calls.
func NNF(p *intern.Pool, f fol.Formula) fol.Formula { return nnfIn(p, f, true) }

// NegNNF returns the negation of f in negation normal form, interned in p.
func NegNNF(p *intern.Pool, f fol.Formula) fol.Formula { return nnfIn(p, f, false) }

type solver struct {
	opts       Options
	pool       *intern.Pool
	skolemBase int
	stats      Stats
	start      time.Time
}

// expired reports whether the clock has run out, and records that it was the
// clock that stopped the search.
func (s *solver) expired() bool {
	if (s.opts.Ctx != nil && s.opts.Ctx.Err() != nil) ||
		(s.opts.Deadline > 0 && time.Since(s.start) > s.opts.Deadline) {
		s.stats.TimedOut = true
		return true
	}
	return false
}

func (s *solver) freshSkolem() uexpr.Tuple {
	v := s.pool.MkVar(s.skolemBase)
	s.skolemBase++
	return v
}

// nnfIn pushes negations to atoms, interning every node in p.
// positive=false means the formula is negated.
func nnfIn(p *intern.Pool, f fol.Formula, positive bool) fol.Formula {
	switch x := f.(type) {
	case *fol.TrueF:
		if positive {
			return p.True()
		}
		return p.False()
	case *fol.FalseF:
		if positive {
			return p.False()
		}
		return p.True()
	case *fol.Not:
		return nnfIn(p, x.F, !positive)
	case *fol.And:
		out := make([]fol.Formula, len(x.Fs))
		for i, g := range x.Fs {
			out[i] = nnfIn(p, g, positive)
		}
		if positive {
			return p.MkAnd(out...)
		}
		return p.MkOr(out...)
	case *fol.Or:
		out := make([]fol.Formula, len(x.Fs))
		for i, g := range x.Fs {
			out[i] = nnfIn(p, g, positive)
		}
		if positive {
			return p.MkOr(out...)
		}
		return p.MkAnd(out...)
	case *fol.Implies:
		if positive {
			return p.MkOr(nnfIn(p, x.L, false), nnfIn(p, x.R, true))
		}
		return p.MkAnd(nnfIn(p, x.L, true), nnfIn(p, x.R, false))
	case *fol.Forall:
		body := nnfIn(p, x.Body, positive)
		if positive {
			return p.MkForall(x.Vars, body)
		}
		return p.MkExists(x.Vars, body)
	case *fol.Exists:
		body := nnfIn(p, x.Body, positive)
		if positive {
			return p.MkExists(x.Vars, body)
		}
		return p.MkForall(x.Vars, body)
	default:
		// Atom (possibly containing ITE conditions, handled at ground level).
		a := p.Formula(f)
		if positive {
			return a
		}
		return p.MkNot(a)
	}
}

// skolemize replaces existential variables with fresh constants. Because the
// input is NNF and we instantiate universals with ground terms before
// re-skolemizing, plain constants per quantifier instance suffice.
func (s *solver) skolemize(f fol.Formula) fol.Formula {
	switch x := f.(type) {
	case *fol.Exists:
		body := x.Body
		for _, v := range x.Vars {
			body = s.pool.SubstFormula(body, v.ID, s.freshSkolem())
		}
		return s.skolemize(body)
	case *fol.And:
		out := make([]fol.Formula, len(x.Fs))
		changed := false
		for i, g := range x.Fs {
			out[i] = s.skolemize(g)
			if out[i] != g {
				changed = true
			}
		}
		if !changed {
			return f
		}
		return s.pool.MkAnd(out...)
	case *fol.Or:
		out := make([]fol.Formula, len(x.Fs))
		changed := false
		for i, g := range x.Fs {
			out[i] = s.skolemize(g)
			if out[i] != g {
				changed = true
			}
		}
		if !changed {
			return f
		}
		return s.pool.MkOr(out...)
	case *fol.Forall:
		// Keep; instantiated later. (Inner existentials are skolemized per
		// instance.)
		return x
	default:
		return f
	}
}

// solve decides a canonical NNF formula.
func (s *solver) solve(nf fol.Formula) (Result, Stats) {
	nf = s.skolemize(nf)

	// Instantiation loop: split into ground part and universal templates;
	// instantiate universals over the ground tuple universe.
	ground := []fol.Formula{}
	var universals []*fol.Forall
	var split func(g fol.Formula)
	split = func(g fol.Formula) {
		switch x := g.(type) {
		case *fol.And:
			for _, h := range x.Fs {
				split(h)
			}
		case *fol.Forall:
			universals = append(universals, x)
		default:
			ground = append(ground, x)
		}
	}
	split(nf)

	seenInst := map[fol.Formula]bool{}
	for round := 0; round < s.opts.InstRounds; round++ {
		if s.expired() {
			return Unknown, s.stats
		}
		pool := s.groundTerms(ground)
		if len(pool) == 0 {
			pool = []uexpr.Tuple{s.freshSkolem()}
		}
		added := false
		for _, u := range universals {
			insts := s.instantiate(u, pool)
			for _, inst := range insts {
				if seenInst[inst] {
					continue
				}
				seenInst[inst] = true
				// The instance may contain nested foralls (e.g. Unique's
				// second conjunct after partial instantiation) — resplit.
				inst = s.skolemize(inst)
				var resplit func(g fol.Formula)
				resplit = func(g fol.Formula) {
					switch x := g.(type) {
					case *fol.And:
						for _, h := range x.Fs {
							resplit(h)
						}
					case *fol.Forall:
						universals = append(universals, x)
					default:
						ground = append(ground, x)
					}
				}
				resplit(inst)
				s.stats.Instances++
				added = true
			}
		}
		if !added {
			break
		}
	}

	// Decide the ground conjunction.
	g := &grounder{solver: s}
	res := g.decide(s.pool.MkAnd(ground...))
	s.stats.Atoms = len(g.atoms)
	return res, s.stats
}

// groundTerms collects ground tuple terms (bounded depth) from formulas.
// After skolemization every TVar is a constant, so every tuple term in the
// quantifier-free parts is ground by construction.
func (s *solver) groundTerms(fs []fol.Formula) []uexpr.Tuple {
	seen := map[uexpr.Tuple]bool{}
	var kept []uexpr.Tuple
	var addT func(t uexpr.Tuple)
	addT = func(t uexpr.Tuple) {
		if seen[t] {
			return
		}
		seen[t] = true
		if s.pool.TupleDepth(t) <= s.opts.MaxTermDepth {
			kept = append(kept, t)
		}
		switch x := t.(type) {
		case *uexpr.TAttr:
			addT(x.T)
		case *uexpr.TConcat:
			addT(x.L)
			addT(x.R)
		}
	}
	for _, f := range fs {
		walkFormulaTuples(f, addT)
	}
	// Deterministic order: sort by the cached canonical key, byte-identical
	// to the historical string sort, independent of interning history.
	sort.Slice(kept, func(i, j int) bool {
		return s.pool.TupleKey(kept[i]) < s.pool.TupleKey(kept[j])
	})
	return kept
}

// instantiate produces all ground instances of a universal formula over the
// pool (bounded combinations).
func (s *solver) instantiate(u *fol.Forall, pool []uexpr.Tuple) []fol.Formula {
	var out []fol.Formula
	var rec func(i int, body fol.Formula)
	rec = func(i int, body fol.Formula) {
		if i == len(u.Vars) {
			out = append(out, body)
			return
		}
		for _, g := range pool {
			rec(i+1, s.pool.SubstFormula(body, u.Vars[i].ID, g))
		}
	}
	if len(pool) == 0 {
		return nil
	}
	// Cap combinatorial blowup.
	combos := 1
	for range u.Vars {
		combos *= len(pool)
	}
	if combos > 4096 {
		return nil
	}
	rec(0, u.Body)
	return out
}

// walkFormulaTuples visits every tuple term in the quantifier-free parts of a
// formula (skipping quantified subformulas, whose variables are not ground).
func walkFormulaTuples(f fol.Formula, fn func(uexpr.Tuple)) {
	switch x := f.(type) {
	case *fol.TrueF, *fol.FalseF:
	case *fol.TupleEq:
		fn(x.L)
		fn(x.R)
	case *fol.PredApp:
		fn(x.T)
	case *fol.IsNull:
		fn(x.T)
	case *fol.IntEq:
		walkTermTuples(x.L, fn)
		walkTermTuples(x.R, fn)
	case *fol.IntGt0:
		walkTermTuples(x.T, fn)
	case *fol.IntLe1:
		walkTermTuples(x.T, fn)
	case *fol.Not:
		walkFormulaTuples(x.F, fn)
	case *fol.And:
		for _, g := range x.Fs {
			walkFormulaTuples(g, fn)
		}
	case *fol.Or:
		for _, g := range x.Fs {
			walkFormulaTuples(g, fn)
		}
	case *fol.Implies:
		walkFormulaTuples(x.L, fn)
		walkFormulaTuples(x.R, fn)
	case *fol.Forall, *fol.Exists:
		// Skip: not ground.
	}
}

func walkTermTuples(t fol.Term, fn func(uexpr.Tuple)) {
	switch x := t.(type) {
	case *fol.RelApp:
		fn(x.T)
	case *fol.IntConst:
	case *fol.ITE:
		walkFormulaTuples(x.Cond, fn)
		walkTermTuples(x.Then, fn)
		walkTermTuples(x.Else, fn)
	case *fol.MulT:
		for _, g := range x.Fs {
			walkTermTuples(g, fn)
		}
	case *fol.AddT:
		for _, g := range x.Ts {
			walkTermTuples(g, fn)
		}
	}
}
