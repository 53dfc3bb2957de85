package verify

import (
	"wetune/internal/constraint"
	"wetune/internal/fol"
	"wetune/internal/intern"
	"wetune/internal/obs"
	"wetune/internal/smt"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// PairContext caches the constraint-independent half of verifying one
// template pair. The relaxation search (§4.3) probes dozens of constraint
// sets against the same <q_src, q_dest>; without a context every probe
// re-translates both templates to U-expressions and re-derives the FOL goal
// from scratch. A context translates exactly once, shares one hash-consing
// pool across all of the pair's SMT calls, and memoizes per-closure
// preparation (normalization, NNF goal skeletons) so a repeat probe only pays
// for symbol unification and the actual SMT search.
//
// A context is NOT safe for concurrent use — it is owned by the single
// pipeline worker processing its pair. Verdicts are identical to calling the
// package-level VerifyOpts per probe: nothing in the preparation depends on
// probe order (memo keys identify constraint closures; all solver orderings
// sort by canonical strings, not pool history). The context solves every
// goal it poses; a goal some earlier call already solved is answered without
// a search only when Options.Context carries an smt.Memo, which is how the
// discovery pipeline shares solves across closures and pairs.
type PairContext struct {
	src, dest *template.Node
	pool      *intern.Pool

	// Translation (constraint-independent). terr records an unsupported
	// operator; translation errors depend only on template structure, never
	// on the probed constraints.
	es, ed uexpr.Expr
	vs, vd *uexpr.TVar
	terr   error

	// Per-closure preparation, keyed by constraint.Unify(cs).Key(): the
	// classes and the residual constraints, which identify the closure
	// without building it. They determine the symbol representatives and
	// the normalizer environment, hence everything below.
	memo map[string]*pairEntry
}

// pairEntry is the cached preparation for one constraint closure.
type pairEntry struct {
	u    constraint.Unification
	reps map[template.Sym]template.Sym

	ns, nd    *uexpr.NF
	vsR       *uexpr.TVar
	algebraic bool

	// FOL side, derived lazily (the algebraic fast path usually wins).
	folReady  bool
	folDetail string      // non-empty: Rejected with this detail
	conj      fol.Formula // NNF of hyp AND NOT goal
}

// NewPairContext translates both templates once and returns a context for
// verifying constraint sets over them.
func NewPairContext(src, dest *template.Node) *PairContext {
	pc := &PairContext{src: src, dest: dest, pool: intern.NewPool(), memo: map[string]*pairEntry{}}
	pc.es, pc.vs, pc.terr = uexpr.Translate(src)
	if pc.terr == nil {
		pc.ed, pc.vd, pc.terr = uexpr.Translate(dest)
	}
	return pc
}

// Verify checks <src, dest, cs> with default options.
func (pc *PairContext) Verify(cs *constraint.Set) Report {
	return pc.VerifyOpts(cs, DefaultOptions())
}

// VerifyOpts checks <src, dest, cs> and counts the verdict
// (verify_builtin_<outcome>, verify_method_<method>) in the default metrics
// registry; the package-level VerifyOpts is a fresh context's VerifyOpts.
func (pc *PairContext) VerifyOpts(cs *constraint.Set, opts Options) Report {
	rep := pc.verify(cs, opts)
	reg := obs.Default()
	reg.Counter(outcomeCounters[rep.Outcome]).Inc()
	if rep.Outcome == Verified {
		reg.Counter(methodCounters[rep.Method]).Inc()
	}
	return rep
}

// The verdict counters' names, built once rather than per call.
var (
	outcomeCounters = [...]string{
		Verified:    "verify_builtin_" + Verified.String(),
		Rejected:    "verify_builtin_" + Rejected.String(),
		Unsupported: "verify_builtin_" + Unsupported.String(),
	}
	methodCounters = [...]string{
		MethodNone:      "verify_method_" + MethodNone.String(),
		MethodAlgebraic: "verify_method_" + MethodAlgebraic.String(),
		MethodSMT:       "verify_method_" + MethodSMT.String(),
	}
)

// verify runs the stages — algebraic comparison, FOL goals, SMT — with the
// constraint-independent work served from the context. One-shot VerifyOpts
// is a fresh context's verify, so a verdict never depends on which closures
// a context prepared before.
func (pc *PairContext) verify(cs *constraint.Set, opts Options) Report {
	if cancelled(opts) {
		return Report{Outcome: Rejected, Detail: "cancelled"}
	}
	if pc.terr != nil {
		return Report{Outcome: Unsupported, Detail: pc.terr.Error()}
	}
	e := pc.entry(cs)

	if !opts.SkipAlgebraic && e.algebraic {
		return Report{Outcome: Verified, Method: MethodAlgebraic}
	}
	if opts.SkipSMT {
		return Report{Outcome: Rejected, Detail: "algebraic forms differ"}
	}
	if cancelled(opts) {
		return Report{Outcome: Rejected, Detail: "cancelled"}
	}

	pc.ensureFOL(e)
	if e.folDetail != "" {
		return Report{Outcome: Rejected, Detail: e.folDetail}
	}
	smtOpts := opts.SMT
	if smtOpts.Ctx == nil {
		smtOpts.Ctx = opts.Context
	}
	smtOpts.Pool = pc.pool
	if cancelled(opts) {
		return Report{Outcome: Rejected, Detail: "cancelled"}
	}
	res, st := smt.SolveNNF(e.conj, smtOpts)
	if res == smt.Unsat {
		return Report{Outcome: Verified, Method: MethodSMT, Stats: st}
	}
	return Report{Outcome: Rejected, Stats: st, Detail: "SMT could not prove UNSAT"}
}

// entry returns the cached preparation for cs's closure, deriving it on first
// sight: map the translated U-expressions to representatives, normalize under
// the constraint environment, and compare canonical forms.
func (pc *PairContext) entry(cs *constraint.Set) *pairEntry {
	u := constraint.Unify(cs)
	key := u.Key()
	if e, ok := pc.memo[key]; ok {
		return e
	}
	reps := u.Reps()
	env := buildEnv(u)
	esR, edR, vsR := pc.sides(reps)
	ns := uexpr.Normalize(esR, env)
	nd := uexpr.Normalize(edR, env)

	e := &pairEntry{
		u:         u,
		reps:      reps,
		ns:        ns,
		nd:        nd,
		vsR:       vsR,
		algebraic: ns.Canon() == nd.Canon(),
	}
	pc.memo[key] = e
	return e
}

// sides maps both translated templates to the representatives reps and
// returns them with the source's output variable, which replaces the
// destination's. ApplySyms reproduces what translating the substituted
// templates yields, scope deduplication included.
func (pc *PairContext) sides(reps map[template.Sym]template.Sym) (esR, edR uexpr.Expr, vsR *uexpr.TVar) {
	vsR = uexpr.ApplySymsTuple(pc.vs, reps).(*uexpr.TVar)
	edR = uexpr.SubstTuple(uexpr.ApplySyms(pc.ed, reps), pc.vd.ID, vsR)
	return uexpr.ApplySyms(pc.es, reps), edR, vsR
}

// ensureFOL derives the FOL goal skeleton for an entry: the residual
// constraints become the hypothesis, the equation's one candidate the goal,
// and the pair is pre-normalized to NNF in the context's pool so repeat probes
// (and repeat solver calls) skip straight to grounding. Fresh variables
// restart at one base per entry, so the formulas do not depend on the order
// the closures are probed in.
func (pc *PairContext) ensureFOL(e *pairEntry) {
	if e.folReady {
		return
	}
	e.folReady = true
	fv := fol.NewFreshVars(1 << 16)
	hyp, err := fol.SetToFOL(e.u.Residual(), fv)
	if err != nil {
		e.folDetail = err.Error()
		return
	}
	goals, err := fol.EquationCandidates(e.ns, e.nd, e.vsR)
	if err != nil || len(goals) == 0 {
		e.folDetail = "no FOL translation (footnote 3)"
		return
	}
	// Identical to nnf(hyp AND NOT goal): MkAnd flattening commutes with
	// per-conjunct NNF.
	e.conj = pc.pool.MkAnd(smt.NNF(pc.pool, hyp), smt.NegNNF(pc.pool, goals[0]))
}
