// Package uexpr implements U-semiring expressions (§5.1.1): the algebraic
// representation of query plan templates under bag semantics, following UDP
// with WeTune's extensions for NULL and OUTER JOIN. Templates translate to
// functions Tuple -> N per Table 3 of the paper; the verifier compares
// normalized expressions and discharges residual obligations via FOL/SMT.
package uexpr

import (
	"fmt"
	"sort"
	"strings"

	"wetune/internal/template"
)

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

// SubstTuple replaces tuple variable id with the replacement term throughout.
func SubstTuple(e Expr, id int, repl Tuple) Expr {
	switch x := e.(type) {
	case *Rel:
		return &Rel{Rel: x.Rel, T: substT(x.T, id, repl)}
	case *Bracket:
		return &Bracket{B: substB(x.B, id, repl)}
	case *Not:
		return &Not{E: SubstTuple(x.E, id, repl)}
	case *Squash:
		return &Squash{E: SubstTuple(x.E, id, repl)}
	case *Sum:
		for _, v := range x.Vars {
			if v.ID == id {
				return x // shadowed
			}
		}
		return &Sum{Vars: x.Vars, E: SubstTuple(x.E, id, repl)}
	case *Mul:
		fs := make([]Expr, len(x.Fs))
		for i, f := range x.Fs {
			fs[i] = SubstTuple(f, id, repl)
		}
		return &Mul{Fs: fs}
	case *Add:
		ts := make([]Expr, len(x.Ts))
		for i, t := range x.Ts {
			ts[i] = SubstTuple(t, id, repl)
		}
		return &Add{Ts: ts}
	case *Const:
		return x
	}
	panic(fmt.Sprintf("uexpr: SubstTuple on %T", e))
}

func substT(t Tuple, id int, repl Tuple) Tuple {
	switch x := t.(type) {
	case *TVar:
		if x.ID == id {
			return repl
		}
		return x
	case *TAttr:
		return &TAttr{Attrs: x.Attrs, T: substT(x.T, id, repl)}
	case *TConcat:
		return &TConcat{L: substT(x.L, id, repl), R: substT(x.R, id, repl)}
	}
	panic(fmt.Sprintf("uexpr: substT on %T", t))
}

func substB(b Bool, id int, repl Tuple) Bool {
	switch x := b.(type) {
	case *BEq:
		return &BEq{L: substT(x.L, id, repl), R: substT(x.R, id, repl)}
	case *BPred:
		return &BPred{Pred: x.Pred, T: substT(x.T, id, repl)}
	case *BIsNull:
		return &BIsNull{T: substT(x.T, id, repl)}
	}
	panic(fmt.Sprintf("uexpr: substB on %T", b))
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
func ApplySyms(e Expr, m map[template.Sym]template.Sym) Expr { return symMap(m).expr(e) }

// ApplySymsTuple is ApplySyms for a tuple term.
func ApplySymsTuple(t Tuple, m map[template.Sym]template.Sym) Tuple { return symMap(m).tuple(t) }

type symMap map[template.Sym]template.Sym

func (m symMap) sym(s template.Sym) template.Sym {
	if r, ok := m[s]; ok {
		return r
	}
	return s
}

func (m symMap) tuple(t Tuple) Tuple {
	switch x := t.(type) {
	case *TVar:
		scope := make([]template.Sym, len(x.Scope))
		for i, s := range x.Scope {
			scope[i] = m.sym(s)
		}
		return &TVar{ID: x.ID, Scope: dedupeSyms(scope)}
	case *TAttr:
		return &TAttr{Attrs: m.sym(x.Attrs), T: m.tuple(x.T)}
	case *TConcat:
		return &TConcat{L: m.tuple(x.L), R: m.tuple(x.R)}
	}
	panic("unreachable")
}

func (m symMap) expr(e Expr) Expr {
	switch x := e.(type) {
	case *Rel:
		return &Rel{Rel: m.sym(x.Rel), T: m.tuple(x.T)}
	case *Bracket:
		switch b := x.B.(type) {
		case *BEq:
			return &Bracket{B: &BEq{L: m.tuple(b.L), R: m.tuple(b.R)}}
		case *BPred:
			return &Bracket{B: &BPred{Pred: m.sym(b.Pred), T: m.tuple(b.T)}}
		case *BIsNull:
			return &Bracket{B: &BIsNull{T: m.tuple(b.T)}}
		}
	case *Not:
		return &Not{E: m.expr(x.E)}
	case *Squash:
		return &Squash{E: m.expr(x.E)}
	case *Sum:
		vars := make([]*TVar, len(x.Vars))
		for i, v := range x.Vars {
			vars[i] = m.tuple(v).(*TVar)
		}
		return &Sum{Vars: vars, E: m.expr(x.E)}
	case *Mul:
		fs := make([]Expr, len(x.Fs))
		for i, f := range x.Fs {
			fs[i] = m.expr(f)
		}
		return &Mul{Fs: fs}
	case *Add:
		ts := make([]Expr, len(x.Ts))
		for i, t := range x.Ts {
			ts[i] = m.expr(t)
		}
		return &Add{Ts: ts}
	case *Const:
		return x
	}
	panic(fmt.Sprintf("uexpr: ApplySyms on %T", e))
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

// TupleVars collects the IDs of tuple variables free in the term.
func TupleVars(t Tuple) []int {
	var out []int
	var rec func(t Tuple)
	rec = func(t Tuple) {
		switch x := t.(type) {
		case *TVar:
			out = append(out, x.ID)
		case *TAttr:
			rec(x.T)
		case *TConcat:
			rec(x.L)
			rec(x.R)
		}
	}
	rec(t)
	sort.Ints(out)
	return out
}

// FreeVars collects the IDs of tuple variables free in the expression.
func FreeVars(e Expr) map[int]bool {
	out := map[int]bool{}
	var recT func(t Tuple, bound map[int]bool)
	recT = func(t Tuple, bound map[int]bool) {
		switch x := t.(type) {
		case *TVar:
			if !bound[x.ID] {
				out[x.ID] = true
			}
		case *TAttr:
			recT(x.T, bound)
		case *TConcat:
			recT(x.L, bound)
			recT(x.R, bound)
		}
	}
	var rec func(e Expr, bound map[int]bool)
	rec = func(e Expr, bound map[int]bool) {
		switch x := e.(type) {
		case *Rel:
			recT(x.T, bound)
		case *Bracket:
			switch b := x.B.(type) {
			case *BEq:
				recT(b.L, bound)
				recT(b.R, bound)
			case *BPred:
				recT(b.T, bound)
			case *BIsNull:
				recT(b.T, bound)
			}
		case *Not:
			rec(x.E, bound)
		case *Squash:
			rec(x.E, bound)
		case *Sum:
			inner := map[int]bool{}
			for k := range bound {
				inner[k] = true
			}
			for _, v := range x.Vars {
				inner[v.ID] = true
			}
			rec(x.E, inner)
		case *Mul:
			for _, f := range x.Fs {
				rec(f, bound)
			}
		case *Add:
			for _, t := range x.Ts {
				rec(t, bound)
			}
		case *Const:
		}
	}
	rec(e, map[int]bool{})
	return out
}
