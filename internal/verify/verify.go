// Package verify implements WeTune's built-in rule verifier (§5.1). A rule
// <q_src, q_dest, C> is checked in three stages:
//
//  1. the equivalence constraints in C (RelEq/AttrsEq/PredEq) unify symbols
//     across the two templates;
//  2. both templates are translated to U-expressions (Table 3) and normalized
//     under constraint-derived rewrite lemmas; syntactically equal normal
//     forms prove the rule (the algebraic fast path);
//  3. otherwise the equation is translated to FOL (Tables 4-5, Theorems
//     5.1/5.2) and the negated implication is checked for UNSAT with the
//     mini SMT solver.
//
// Like the paper, anything not proven is conservatively rejected. Whether a
// rejected rule is actually wrong is decided by running it: see
// internal/difftest's CheckRule.
package verify

import (
	"context"

	"wetune/internal/constraint"
	"wetune/internal/smt"
	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// Outcome classifies a verification attempt.
type Outcome int

// Verification outcomes.
const (
	// Verified: the rule is proven correct.
	Verified Outcome = iota
	// Rejected: not proven (treated as incorrect, like the paper's timeout).
	Rejected
	// Unsupported: the templates use operators the built-in verifier cannot
	// model (Agg/Union, Table 6).
	Unsupported
)

func (o Outcome) String() string {
	switch o {
	case Verified:
		return "verified"
	case Rejected:
		return "rejected"
	case Unsupported:
		return "unsupported"
	}
	return "?"
}

// Method records which stage proved the rule.
type Method int

// Proof methods.
const (
	MethodNone Method = iota
	MethodAlgebraic
	MethodSMT
)

func (m Method) String() string {
	switch m {
	case MethodAlgebraic:
		return "algebraic"
	case MethodSMT:
		return "smt"
	}
	return "none"
}

// Report is the result of verifying one rule.
type Report struct {
	Outcome Outcome
	Method  Method
	Stats   smt.Stats
	Detail  string
}

// Options tunes the verifier.
type Options struct {
	SMT smt.Options
	// SkipSMT disables the FOL/SMT fallback (algebraic path only); used by
	// the ablation benchmarks.
	SkipSMT bool
	// SkipAlgebraic disables the algebraic fast path (SMT only).
	SkipAlgebraic bool
	// Context, when non-nil, cancels verification between stages and inside
	// the SMT solver's main loop: a deadline interrupts an in-flight proof
	// rather than waiting for it to finish. A cancelled proof is Rejected
	// (conservative, like the paper's timeout).
	Context context.Context
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{SMT: smt.DefaultOptions()} }

// Verify checks the rule <src, dest, cs>.
func Verify(src, dest *template.Node, cs *constraint.Set) Report {
	return VerifyOpts(src, dest, cs, DefaultOptions())
}

// cancelled reports whether the verification context is done.
func cancelled(opts Options) bool {
	return opts.Context != nil && opts.Context.Err() != nil
}

// VerifyOpts is Verify with explicit options. Each call increments the
// per-verdict counters (verify_builtin_<outcome>, verify_method_<method>) in
// the default metrics registry.
//
// One-shot verification builds a fresh PairContext per call; the relaxation
// search holds one context per template pair instead (see PairContext), which
// is where the translation/normalization caching pays off.
func VerifyOpts(src, dest *template.Node, cs *constraint.Set, opts Options) Report {
	return NewPairContext(src, dest).VerifyOpts(cs, opts)
}

// buildEnv extracts the normalizer's fact tables from the residual of a
// unification, whose symbols are representatives already.
func buildEnv(u constraint.Unification) *uexpr.Env {
	env := uexpr.EmptyEnv()
	residual := u.Residual()
	for i := 0; i < residual.Len(); i++ {
		switch c := residual.At(i); c.Kind {
		case constraint.SubAttrs:
			a1, a2 := c.Syms[0], c.Syms[1]
			env.SubPairs[[2]template.Sym{a1, a2}] = true
			if a2.Kind == template.KAttrsOf && env.AttrSource[a1] == nil {
				env.AttrSource[a1] = map[template.Sym]bool{}
				for _, rel := range u.Sources(a1) {
					env.AttrSource[a1][rel] = true
				}
			}
		case constraint.Unique:
			env.UniqueKey[[2]template.Sym{c.Syms[0], c.Syms[1]}] = true
		case constraint.NotNull:
			env.NotNull[[2]template.Sym{c.Syms[0], c.Syms[1]}] = true
		case constraint.RefAttrs:
			env.Ref[[4]template.Sym{c.Syms[0], c.Syms[1], c.Syms[2], c.Syms[3]}] = true
		}
	}
	return env
}
