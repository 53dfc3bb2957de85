// Package uexpr implements U-semiring expressions (§5.1.1): the algebraic
// representation of query plan templates under bag semantics, following UDP
// with WeTune's extensions for NULL and OUTER JOIN. Templates translate to
// functions Tuple -> N per Table 3 of the paper; the verifier compares
// normalized expressions and discharges residual obligations via FOL/SMT.
package uexpr

import (
	"fmt"
	"strings"

	"wetune/internal/template"
)

// The node kinds of the three sorts — Tuple, Bool with the normal-form
// Factor, and Expr — are declared here and in normalize.go. A new kind must
// be added to the sort's switch in traverse.go (mapTuple, mapper.factor or
// mapper.expr), to the printer (renderer.tuple, bool and factor), norm
// or tupleScope, and to the semantic consumers outside this package:
// fol.trFactor and boolToFormula, smt's grounding walks and intern's
// constructors. A new tuple kind also needs its case in sameTuple, the
// normalizer's one tuple identity, and a decision in the congruence
// rewrite's occurs check (occursUnderConcat): whether rewriting a member
// into a representative that holds it beneath the new kind can grow without
// end, as beneath a concatenation it does.

// Tuple is a tuple-sorted term.
type Tuple interface {
	tuple()
	String() string
}

// TVar is a tuple variable. Scope lists the relation symbols whose tuples the
// variable ranges over (used to resolve attribute projections on
// concatenations); nil means unknown (e.g. the output variable).
type TVar struct {
	ID    int
	Scope []template.Sym
}

func (v *TVar) tuple()         {}
func (v *TVar) String() string { return fmt.Sprintf("t%d", v.ID) }

// TAttr is the application a(t) of an attribute-list symbol.
type TAttr struct {
	Attrs template.Sym
	T     Tuple
}

func (a *TAttr) tuple()         {}
func (a *TAttr) String() string { return fmt.Sprintf("%s(%s)", a.Attrs, a.T) }

// TConcat is tuple concatenation t_l . t_r.
type TConcat struct {
	L, R Tuple
}

func (c *TConcat) tuple()         {}
func (c *TConcat) String() string { return fmt.Sprintf("(%s.%s)", c.L, c.R) }

// Bool is a boolean atom usable inside a bracket [b].
type Bool interface {
	boolAtom()
	String() string
}

// BEq is tuple equality t1 = t2.
type BEq struct {
	L, R Tuple
}

func (b *BEq) boolAtom()      {}
func (b *BEq) String() string { return fmt.Sprintf("%s = %s", b.L, b.R) }

// BPred is the application p(t) of a predicate symbol.
type BPred struct {
	Pred template.Sym
	T    Tuple
}

func (b *BPred) boolAtom()      {}
func (b *BPred) String() string { return fmt.Sprintf("%s(%s)", b.Pred, b.T) }

// BIsNull is the IsNull(t) predicate of §5.1.1.
type BIsNull struct {
	T Tuple
}

func (b *BIsNull) boolAtom()      {}
func (b *BIsNull) String() string { return fmt.Sprintf("IsNull(%s)", b.T) }

// Expr is a natural-number-valued U-expression.
type Expr interface {
	uexpr()
	String() string
}

// Rel is the application r(t): the multiplicity of tuple t in relation r.
type Rel struct {
	Rel template.Sym
	T   Tuple
}

func (r *Rel) uexpr()         {}
func (r *Rel) String() string { return fmt.Sprintf("%s(%s)", r.Rel, r.T) }

// Bracket is [b]: 1 if b holds, else 0.
type Bracket struct {
	B Bool
}

func (b *Bracket) uexpr()         {}
func (b *Bracket) String() string { return fmt.Sprintf("[%s]", b.B) }

// Not is not(e): 1 if e = 0, else 0.
type Not struct {
	E Expr
}

func (n *Not) uexpr()         {}
func (n *Not) String() string { return fmt.Sprintf("not(%s)", n.E) }

// Squash is ||e||: 1 if e > 0, else 0. It models Dedup.
type Squash struct {
	E Expr
}

func (s *Squash) uexpr()         {}
func (s *Squash) String() string { return fmt.Sprintf("||%s||", s.E) }

// Sum is the unbounded summation over tuple variables.
type Sum struct {
	Vars []*TVar
	E    Expr
}

func (s *Sum) uexpr() {}
func (s *Sum) String() string {
	names := make([]string, len(s.Vars))
	for i, v := range s.Vars {
		names[i] = v.String()
	}
	return fmt.Sprintf("sum{%s}(%s)", strings.Join(names, ","), s.E)
}

// Mul is a product of factors.
type Mul struct {
	Fs []Expr
}

func (m *Mul) uexpr() {}
func (m *Mul) String() string {
	parts := make([]string, len(m.Fs))
	for i, f := range m.Fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, " * ")
}

// Add is a sum of terms (semiring +).
type Add struct {
	Ts []Expr
}

func (a *Add) uexpr() {}
func (a *Add) String() string {
	parts := make([]string, len(a.Ts))
	for i, t := range a.Ts {
		parts[i] = "(" + t.String() + ")"
	}
	return strings.Join(parts, " + ")
}

// Const is a non-negative integer constant (0 or 1 in practice).
type Const struct {
	N int
}

func (c *Const) uexpr()         {}
func (c *Const) String() string { return fmt.Sprintf("%d", c.N) }

// Zero and One are the semiring constants.
var (
	Zero = &Const{N: 0}
	One  = &Const{N: 1}
)

// --- substitution ---

// SubstTuple replaces free occurrences of tuple variable id with repl: a Sum
// binding id keeps its body as it is.
func SubstTuple(e Expr, id int, repl Tuple) Expr {
	m := mapper{sub: map[int]Tuple{id: repl}}
	return m.expr(e)
}

// ApplySyms replaces template symbols per the mapping throughout the
// expression (RelEq/AttrsEq/PredEq unification); the mapping need not be
// injective. After mapping, each TVar scope is deduplicated preserving first
// occurrence: scope length is semantically significant to the normalizer (a
// summation variable ranging over exactly its scope relations simplifies
// differently than one ranging wider), and Translate builds scopes from
// template.RelSyms, which dedupes after template substitution; mapping an
// already-translated expression must reproduce that, so merging two relations
// into one representative must collapse their scope entries.
func ApplySyms(e Expr, m map[template.Sym]template.Sym) Expr {
	sm := mapper{sym: symMap(m).sym}
	return sm.expr(e)
}

// ApplySymsTuple is ApplySyms for a tuple term.
func ApplySymsTuple(t Tuple, m map[template.Sym]template.Sym) Tuple {
	sm := mapper{sym: symMap(m).sym}
	return sm.arg(t)
}

type symMap map[template.Sym]template.Sym

func (m symMap) sym(s template.Sym) template.Sym {
	if r, ok := m[s]; ok {
		return r
	}
	return s
}

func dedupeSyms(syms []template.Sym) []template.Sym {
	out := make([]template.Sym, 0, len(syms))
	seen := map[template.Sym]bool{}
	for _, s := range syms {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
