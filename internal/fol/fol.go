// Package fol defines the first-order-logic formula language the built-in
// verifier targets (§5.1.2): constraints translate per Table 4, and the
// U-expression equation q_src(t) = q_dest(t) translates per Table 5 using
// Theorems 5.1/5.2 to eliminate summations. The mini SMT solver in
// internal/smt decides the resulting (negated) formulas.
package fol

import (
	"fmt"
	"strings"

	"wetune/internal/template"
	"wetune/internal/uexpr"
)

// The node kinds below are the formula and integer-term language. A new kind
// must touch: Mapper.MapFormula or Mapper.MapTerm and the builder interface
// (traverse.go) with the plain builder there; intern's tag, Mk* constructor
// and hash; smt's nnfIn, compileAll and, for an atom over tuples,
// buildUniverse; and its String method.

// Term is an integer-valued term.
type Term interface {
	term()
	String() string
}

// RelApp is r(t): the multiplicity of tuple t in relation r (an
// uninterpreted function Tuple -> N).
type RelApp struct {
	Rel template.Sym
	T   uexpr.Tuple
}

func (r *RelApp) term()          {}
func (r *RelApp) String() string { return fmt.Sprintf("%s(%s)", r.Rel, r.T) }

// IntConst is a non-negative integer constant.
type IntConst struct{ N int }

func (c *IntConst) term()          {}
func (c *IntConst) String() string { return fmt.Sprintf("%d", c.N) }

// ITE is ite(cond, a, b).
type ITE struct {
	Cond Formula
	Then Term
	Else Term
}

func (i *ITE) term() {}
func (i *ITE) String() string {
	return fmt.Sprintf("ite(%s, %s, %s)", i.Cond, i.Then, i.Else)
}

// MulT is a product of terms.
type MulT struct{ Fs []Term }

func (m *MulT) term() {}
func (m *MulT) String() string {
	parts := make([]string, len(m.Fs))
	for i, f := range m.Fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, " * ")
}

// AddT is a sum of terms.
type AddT struct{ Ts []Term }

func (a *AddT) term() {}
func (a *AddT) String() string {
	parts := make([]string, len(a.Ts))
	for i, t := range a.Ts {
		parts[i] = "(" + t.String() + ")"
	}
	return strings.Join(parts, " + ")
}

// Formula is a first-order formula.
type Formula interface {
	formula()
	String() string
}

// TupleEq is tuple equality.
type TupleEq struct{ L, R uexpr.Tuple }

func (f *TupleEq) formula()       {}
func (f *TupleEq) String() string { return fmt.Sprintf("%s = %s", f.L, f.R) }

// PredApp is p(t) for an uninterpreted predicate symbol.
type PredApp struct {
	Pred template.Sym
	T    uexpr.Tuple
}

func (f *PredApp) formula()       {}
func (f *PredApp) String() string { return fmt.Sprintf("%s(%s)", f.Pred, f.T) }

// IsNull is the NULL test on a tuple term.
type IsNull struct{ T uexpr.Tuple }

func (f *IsNull) formula()       {}
func (f *IsNull) String() string { return fmt.Sprintf("IsNull(%s)", f.T) }

// IntEq is integer equality between terms.
type IntEq struct{ L, R Term }

func (f *IntEq) formula()       {}
func (f *IntEq) String() string { return fmt.Sprintf("%s = %s", f.L, f.R) }

// IntGt0 is T > 0.
type IntGt0 struct{ T Term }

func (f *IntGt0) formula()       {}
func (f *IntGt0) String() string { return fmt.Sprintf("%s > 0", f.T) }

// IntLe1 is T <= 1 (used by the Unique constraint).
type IntLe1 struct{ T Term }

func (f *IntLe1) formula()       {}
func (f *IntLe1) String() string { return fmt.Sprintf("%s <= 1", f.T) }

// Not is logical negation.
type Not struct{ F Formula }

func (f *Not) formula()       {}
func (f *Not) String() string { return fmt.Sprintf("!(%s)", f.F) }

// And is conjunction.
type And struct{ Fs []Formula }

func (f *And) formula() {}
func (f *And) String() string {
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = "(" + g.String() + ")"
	}
	return strings.Join(parts, " & ")
}

// Or is disjunction.
type Or struct{ Fs []Formula }

func (f *Or) formula() {}
func (f *Or) String() string {
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = "(" + g.String() + ")"
	}
	return strings.Join(parts, " | ")
}

// Implies is implication.
type Implies struct{ L, R Formula }

func (f *Implies) formula()       {}
func (f *Implies) String() string { return fmt.Sprintf("(%s) => (%s)", f.L, f.R) }

// Forall is universal quantification over tuple variables.
type Forall struct {
	Vars []*uexpr.TVar
	Body Formula
}

func (f *Forall) formula() {}
func (f *Forall) String() string {
	names := make([]string, len(f.Vars))
	for i, v := range f.Vars {
		names[i] = v.String()
	}
	return fmt.Sprintf("forall %s. %s", strings.Join(names, ","), f.Body)
}

// Exists is existential quantification over tuple variables.
type Exists struct {
	Vars []*uexpr.TVar
	Body Formula
}

func (f *Exists) formula() {}
func (f *Exists) String() string {
	names := make([]string, len(f.Vars))
	for i, v := range f.Vars {
		names[i] = v.String()
	}
	return fmt.Sprintf("exists %s. %s", strings.Join(names, ","), f.Body)
}

// TrueF and FalseF are the boolean constants.
type TrueF struct{}

func (f *TrueF) formula()       {}
func (f *TrueF) String() string { return "true" }

// FalseF is logical falsity.
type FalseF struct{}

func (f *FalseF) formula()       {}
func (f *FalseF) String() string { return "false" }

// MkAnd flattens a conjunction.
func MkAnd(fs ...Formula) Formula { return junction(false, fs) }

// MkOr flattens a disjunction.
func MkOr(fs ...Formula) Formula { return junction(true, fs) }

func junction(or bool, fs []Formula) Formula {
	switch out := Flatten(nil, or, fs); {
	case len(out) == 1:
		return out[0]
	case len(out) == 0 && or:
		return &FalseF{}
	case len(out) == 0:
		return &TrueF{}
	case or:
		return &Or{Fs: out}
	default:
		return &And{Fs: out}
	}
}

// Flatten appends to dst the operands of the conjunction of fs, or with or
// set of the disjunction: nil operands and the unit (true, or false) are
// dropped, and a nested conjunction (disjunction) contributes its operands.
// It is the one flattening rule of MkAnd, MkOr and their pooled versions.
func Flatten(dst []Formula, or bool, fs []Formula) []Formula {
	for _, f := range fs {
		and, isAnd := f.(*And)
		disj, isOr := f.(*Or)
		_, isTrue := f.(*TrueF)
		_, isFalse := f.(*FalseF)
		switch {
		case f == nil, isTrue && !or, isFalse && or:
		case isAnd && !or:
			dst = append(dst, and.Fs...)
		case isOr && or:
			dst = append(dst, disj.Fs...)
		default:
			dst = append(dst, f)
		}
	}
	return dst
}
