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
	// every 64 quantifier instances, theory case splits): cancellation
	// interrupts an in-flight proof with Unknown instead of running to the
	// next boundary.
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

// Stop names a bound of the search.
type Stop uint8

// The bounds, in no particular order. StopDeadline is the only one that
// depends on the machine and its load: an Unknown it caused may be a proof on
// a faster run, the others repeat everywhere.
const (
	StopNone         Stop = iota
	StopAtoms             // more than maxAtoms distinct ground atoms
	StopNodes             // Options.MaxNodes DPLL nodes
	StopCombinations      // an embedded universal with over 1024 instances
	StopDepth             // quantifiers nested deeper than prep follows
	StopCaseSplit         // an integer check past maxSplitVars or the degree packing
	StopDeadline          // Options.Deadline or a cancelled Options.Ctx
)

var stopNames = [...]string{"none", "atoms", "nodes", "combinations", "depth", "case_split", "deadline"}

func (c Stop) String() string { return stopNames[c] }

// Stats reports solver effort. On a call refused for its size (StopAtoms)
// Instances and Atoms are the values at the moment of refusal.
type Stats struct {
	Nodes     int
	Instances int
	Atoms     int
	// Decisions counts DPLL branch points (an open atom was picked and
	// assigned); Backtracks counts abandoned branch values. A proof with many
	// backtracks per decision is thrashing in the theory solver.
	Decisions  int
	Backtracks int
	// StoppedBy is the first bound that cut the search short: the cause of an
	// Unknown. It can accompany Sat — the model was found in what was left of
	// the search and may be spurious — but never Unsat.
	StoppedBy Stop
}

// Metric names recorded by the solver (see internal/obs and DESIGN.md).
const (
	metricProofSeconds = "smt_proof_seconds"
	metricDecisions    = "smt_decisions"
	metricBacktracks   = "smt_backtracks"
	metricInstances    = "smt_instances"
	metricOutcome      = "smt_outcome_" // + sat|unsat|unknown
	// Every unknown is also counted by cause, Stats.StoppedBy:
	// smt_outcome_unknown_atoms, _nodes, ..., _deadline.
	metricUnknownBy = metricOutcome + "unknown_"
	metricMemoHits  = "smt_memo_hits"
)

// Solve decides satisfiability of a closed formula. Every call records its
// outcome in the metrics registry, and every call that searches its duration
// and DPLL effort; Unknown covers every bound of the search, structural or
// wall-clock (the paper's dominant cost, so these counters are the first
// thing to check when a run stalls), split by cause in
// smt_outcome_unknown_<Stats.StoppedBy>. A call whose Options.Ctx carries a
// Memo that has the goal returns what the stored solve returned, without a
// search, and counts in smt_memo_hits.
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
	start := time.Now()
	var nf fol.Formula
	if isNNF {
		nf = pool.Formula(f)
	} else {
		nf = nnfIn(pool, f, true)
	}
	memo := memoOf(opts.Ctx)
	var key memoKey
	if memo != nil {
		k, e, hit := memo.lookup(nf, opts)
		if hit {
			reg.Counter(metricMemoHits).Inc()
			countOutcome(reg, e.res, e.st)
			pool.FlushMetrics(reg)
			sp.SetNote("%s stopped-by=%s (memo)", e.res, e.st.StoppedBy)
			sp.End()
			return e.res, e.st
		}
		key = k
	}
	s := &solver{opts: opts, pool: pool, skolemBase: 1 << 24, start: start}
	res, st := s.solve(nf)
	if memo != nil {
		memo.store(key, res, st)
	}
	reg.Histogram(metricProofSeconds).Observe(time.Since(start))
	countOutcome(reg, res, st)
	reg.Counter(metricDecisions).Add(int64(st.Decisions))
	reg.Counter(metricBacktracks).Add(int64(st.Backtracks))
	reg.Counter(metricInstances).Add(int64(st.Instances))
	pool.FlushMetrics(reg)
	sp.SetNote("%s stopped-by=%s nodes=%d decisions=%d backtracks=%d", res, st.StoppedBy, st.Nodes, st.Decisions, st.Backtracks)
	sp.End()
	return res, st
}

// countOutcome counts one answer, and an Unknown by its cause.
func countOutcome(reg *obs.Registry, res Result, st Stats) {
	reg.Counter(metricOutcome + res.String()).Inc()
	if res == Unknown {
		reg.Counter(metricUnknownBy + st.StoppedBy.String()).Inc()
	}
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

// maxAtoms is the most distinct atoms a ground formula may have and still be
// searched; a larger one is refused with Unknown (StopAtoms). solve refuses
// as soon as the atoms it has streamed pass it, decide when its own count
// does.
const maxAtoms = 400

// groundedHook is nil outside tests. A test that sets it (export_test.go)
// makes solve ground every formula to the end, leaving refusal to decide, and
// receives the atom count solve streamed beside the one decide refuses on.
var groundedHook func(streamed, decided int)

type solver struct {
	opts       Options
	pool       *intern.Pool
	skolemBase int
	stats      Stats
	start      time.Time

	// solve's instantiation state: the conjuncts split so far into ground
	// formulas and universal templates, and counted, the distinct
	// quantifier-free atoms of ground — never more than decide will count
	// (see countAtoms).
	ground     []fol.Formula
	universals []*fol.Forall
	counted    map[fol.Formula]struct{}
	seenTerm   map[uexpr.Tuple]struct{} // groundTerms' visited set
	// enumerated counts eachInstance's yields, for its look at the clock.
	enumerated int
}

// stop records cause as what cut the search short, unless a bound already did.
func (s *solver) stop(cause Stop) {
	if s.stats.StoppedBy == StopNone {
		s.stats.StoppedBy = cause
	}
}

// expired reports whether the clock has run out, and records that it was the
// clock that stopped the search.
func (s *solver) expired() bool {
	if (s.opts.Ctx != nil && s.opts.Ctx.Err() != nil) ||
		(s.opts.Deadline > 0 && time.Since(s.start) > s.opts.Deadline) {
		s.stop(StopDeadline)
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
// positive=false means the formula is negated. It keeps its own switch: a
// negation turns each connective and quantifier into its dual, which is not a
// map of children. (true is the empty conjunction, false the empty
// disjunction.)
func nnfIn(p *intern.Pool, f fol.Formula, positive bool) fol.Formula {
	all := func(fs []fol.Formula) []fol.Formula {
		out := make([]fol.Formula, len(fs))
		for i, g := range fs {
			out[i] = nnfIn(p, g, positive)
		}
		return out
	}
	switch x := f.(type) {
	case *fol.TrueF:
		return junction(p, !positive)
	case *fol.FalseF:
		return junction(p, positive)
	case *fol.Not:
		return nnfIn(p, x.F, !positive)
	case *fol.And:
		return junction(p, !positive, all(x.Fs)...)
	case *fol.Or:
		return junction(p, positive, all(x.Fs)...)
	case *fol.Implies:
		return junction(p, positive, nnfIn(p, x.L, !positive), nnfIn(p, x.R, positive))
	case *fol.Forall:
		return quantifier(p, positive, x.Vars, nnfIn(p, x.Body, positive))
	case *fol.Exists:
		return quantifier(p, !positive, x.Vars, nnfIn(p, x.Body, positive))
	}
	// Atom (possibly containing ITE conditions, handled at ground level).
	a := p.Formula(f)
	if positive {
		return a
	}
	return p.MkNot(a)
}

// junction is the pooled disjunction of fs, or with or unset the conjunction.
func junction(p *intern.Pool, or bool, fs ...fol.Formula) fol.Formula {
	if or {
		return p.MkOr(fs...)
	}
	return p.MkAnd(fs...)
}

// quantifier is the pooled universal over vars, or with forall unset the
// existential.
func quantifier(p *intern.Pool, forall bool, vars []*uexpr.TVar, body fol.Formula) fol.Formula {
	if forall {
		return p.MkForall(vars, body)
	}
	return p.MkExists(vars, body)
}

// skolemize replaces existential variables with fresh constants. Because the
// input is NNF and we instantiate universals with ground terms before
// re-skolemizing, plain constants per quantifier instance suffice. Universals
// are kept, to be instantiated later (their inner existentials are skolemized
// per instance); the rest is skolemized child formula by child formula.
func (s *solver) skolemize(f fol.Formula) fol.Formula {
	if x, ok := f.(*fol.Exists); ok {
		body := x.Body
		for _, v := range x.Vars {
			body = s.pool.SubstFormula(body, v.ID, s.freshSkolem())
		}
		return s.skolemize(body)
	}
	if _, ok := f.(*fol.Forall); ok {
		return f
	}
	m := fol.Mapper{Formula: s.skolemize}
	return m.MapFormula(f, s.pool)
}

// solve decides a canonical NNF formula: it splits the skolemized formula
// into ground conjuncts and universal templates, instantiates the universals
// over the ground tuple terms for up to InstRounds rounds, and hands the
// ground conjunction to a grounder — unless the atoms streamed so far already
// exceed what the grounder accepts.
func (s *solver) solve(nf fol.Formula) (Result, Stats) {
	s.counted = map[fol.Formula]struct{}{}
	s.seenTerm = map[uexpr.Tuple]struct{}{}
	s.split(s.skolemize(nf))

	// The instances of one round, in order: universals as split, each one's
	// variables outermost first over the key-sorted pool. Universals an
	// instance uncovers (e.g. Unique's second conjunct after partial
	// instantiation) wait for the next round.
	seenInst := map[fol.Formula]bool{}
	take := func(inst fol.Formula) bool {
		if seenInst[inst] {
			return true
		}
		seenInst[inst] = true
		s.split(s.skolemize(inst))
		s.stats.Instances++
		return !s.refused()
	}
	for round := 0; round < s.opts.InstRounds; round++ {
		if s.refused() || s.expired() {
			return Unknown, s.stats
		}
		pool := s.groundTerms(s.ground)
		if len(pool) == 0 {
			pool = []uexpr.Tuple{s.freshSkolem()}
		}
		before := s.stats.Instances
		for _, u := range s.universals { // as of this round: range fixes the length
			// Over 4096 combinations the universal is left out: a weaker
			// formula, sound for UNSAT.
			s.eachInstance(u.Vars, u.Body, pool, 4096, take)
			if s.stats.StoppedBy != StopNone {
				return Unknown, s.stats
			}
		}
		if s.stats.Instances == before {
			break
		}
	}

	// Decide the ground conjunction.
	g := &grounder{solver: s}
	res := g.decide(s.pool.MkAnd(s.ground...))
	s.stats.Atoms = len(g.atoms)
	if groundedHook != nil {
		groundedHook(len(s.counted), len(g.atoms))
	}
	return res, s.stats
}

// refused reports whether the atoms streamed so far already exceed what
// decide accepts, and records the refusal.
func (s *solver) refused() bool {
	if len(s.counted) <= maxAtoms || groundedHook != nil {
		return false
	}
	// Too large for the ground solver; give up like a timeout.
	s.stop(StopAtoms)
	s.stats.Atoms = len(s.counted)
	return true
}

// split files the conjuncts of g: universals to instantiate, the rest ground.
func (s *solver) split(g fol.Formula) {
	if u, ok := g.(*fol.Forall); ok {
		s.universals = append(s.universals, u)
		return
	}
	if _, ok := g.(*fol.And); ok {
		m := fol.Mapper{Formula: func(h fol.Formula) fol.Formula { s.split(h); return h }}
		m.MapFormula(g, nil)
		return
	}
	s.ground = append(s.ground, g)
	s.countAtoms(g)
}

// countAtoms adds to s.counted the atoms of f that hold no quantifier and sit
// under none. The count is a lower bound of decide's: prep is the identity on
// a quantifier-free atom (hash-consed Mk* of unchanged children returns the
// same node) and keeps it wherever it stands outside quantifiers (MkAnd/MkOr
// drop only constants; what prep cuts to true lies under a quantifier), so
// collectAtoms meets every atom counted here.
func (s *solver) countAtoms(f fol.Formula) {
	walkAtoms(f, func(a fol.Formula) bool {
		if _, ok := s.counted[a]; ok || hasQuantifier(a, true) {
			return false
		}
		s.counted[a] = struct{}{}
		return true
	})
}

// groundTerms collects ground tuple terms (bounded depth) from formulas.
// After skolemization every TVar is a constant, so every tuple term in the
// quantifier-free parts is ground by construction.
func (s *solver) groundTerms(fs []fol.Formula) []uexpr.Tuple {
	clear(s.seenTerm)
	var kept []uexpr.Tuple
	var addT func(t uexpr.Tuple)
	addT = func(t uexpr.Tuple) {
		if _, ok := s.seenTerm[t]; ok {
			return
		}
		s.seenTerm[t] = struct{}{}
		if s.pool.TupleDepth(t) <= s.opts.MaxTermDepth {
			kept = append(kept, t)
		}
		uexpr.MapTuple(t, func(c uexpr.Tuple) uexpr.Tuple { addT(c); return c }, nil)
	}
	for _, f := range fs {
		walkTuples(f, addT)
	}
	// Deterministic order: sort by the cached canonical key, byte-identical
	// to the historical string sort, independent of interning history.
	sort.Slice(kept, func(i, j int) bool {
		return s.pool.TupleKey(kept[i]) < s.pool.TupleKey(kept[j])
	})
	return kept
}

// eachInstance yields body with vars replaced by every combination of pool
// terms — first variable outermost, terms in pool order — until yield returns
// false. More than limit combinations are not started: nothing is yielded and
// the result is false. Every 64th instance of a solve looks at the clock, and
// an expired one ends the enumeration (expired has recorded it).
func (s *solver) eachInstance(vars []*uexpr.TVar, body fol.Formula, pool []uexpr.Tuple, limit int, yield func(fol.Formula) bool) bool {
	combos := 1
	for range vars {
		if combos *= len(pool); combos > limit {
			return false
		}
	}
	s.substAll(vars, body, pool, yield)
	return true
}

func (s *solver) substAll(vars []*uexpr.TVar, body fol.Formula, pool []uexpr.Tuple, yield func(fol.Formula) bool) bool {
	if len(vars) == 0 {
		if s.enumerated++; s.enumerated&63 == 0 && s.expired() {
			return false
		}
		return yield(body)
	}
	for _, t := range pool {
		if !s.substAll(vars[1:], s.pool.SubstFormula(body, vars[0].ID, t), pool, yield) {
			return false
		}
	}
	return true
}

// walkTuples visits every tuple argument in the quantifier-free parts of a
// formula, ITE conditions included (quantified subformulas are skipped: their
// variables are not ground).
func walkTuples(f fol.Formula, fn func(uexpr.Tuple)) {
	var m fol.Mapper
	m = fol.Mapper{
		Formula: func(h fol.Formula) fol.Formula { m.MapFormula(h, nil); return h },
		Term:    func(t fol.Term) fol.Term { m.MapTerm(t, nil); return t },
		Tuple:   func(t uexpr.Tuple) uexpr.Tuple { fn(t); return t },
		Bind:    func([]*uexpr.TVar) bool { return true },
	}
	m.MapFormula(f, nil)
}
