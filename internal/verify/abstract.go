package verify

import (
	"fmt"

	"wetune/internal/constraint"
	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/template"
)

// AbstractPair lifts a pair of concrete plans into a symbolic rule
// <q_src, q_dest, C>, inverting the §5.2 concretization: every scan becomes a
// relation symbol, every attribute list and predicate a symbol, and the
// constraint set records which symbols denote the same concrete object plus
// the Unique/NotNull/RefAttrs facts the schema provides. This lets the
// built-in verifier check concrete query pairs (the Calcite-suite experiment
// of §8.5).
func AbstractPair(a, b plan.Node, schema *sql.Schema) (*template.Node, *template.Node, *constraint.Set, error) {
	ab := &abstractor{
		schema:  schema,
		relByFP: map[string][]relInstance{},
		attrsBy: map[string][]attrInstance{},
		predsBy: map[string][]predInstance{},
	}
	src, err := ab.lift(a)
	if err != nil {
		return nil, nil, nil, err
	}
	dest, err := ab.lift(b)
	if err != nil {
		return nil, nil, nil, err
	}
	cs := ab.constraints()
	return src, dest, cs, nil
}

type relInstance struct {
	sym  template.Sym
	node plan.Node
}

type attrInstance struct {
	sym   template.Sym
	cols  []plan.ColRef
	owner plan.Node
}

type predInstance struct {
	sym  template.Sym
	expr sql.Expr
}

type abstractor struct {
	schema  *sql.Schema
	relN    int
	attrN   int
	predN   int
	relByFP map[string][]relInstance
	attrsBy map[string][]attrInstance
	predsBy map[string][]predInstance
	rels    []relInstance
	attrs   []attrInstance
	preds   []predInstance
}

func (ab *abstractor) freshRel(n plan.Node) template.Sym {
	s := template.Sym{Kind: template.KRel, ID: ab.relN}
	ab.relN++
	inst := relInstance{sym: s, node: n}
	ab.rels = append(ab.rels, inst)
	ab.relByFP[relKey(n)] = append(ab.relByFP[relKey(n)], inst)
	return s
}

func relKey(n plan.Node) string {
	if s, ok := n.(*plan.Scan); ok {
		return "scan:" + s.Table
	}
	return "plan:" + plan.Fingerprint(n)
}

func (ab *abstractor) freshAttrs(cols []plan.ColRef, owner plan.Node) template.Sym {
	s := template.Sym{Kind: template.KAttrs, ID: ab.attrN}
	ab.attrN++
	inst := attrInstance{sym: s, cols: cols, owner: owner}
	ab.attrs = append(ab.attrs, inst)
	ab.attrsBy[attrKey(cols, owner)] = append(ab.attrsBy[attrKey(cols, owner)], inst)
	return s
}

// attrKey identifies an attribute list by the base-table origin of each
// column (alias-insensitive).
func attrKey(cols []plan.ColRef, owner plan.Node) string {
	out := ""
	for _, c := range cols {
		t, col, ok := plan.Origin(owner, c)
		if ok {
			out += t + "." + col + ";"
		} else {
			out += "?." + c.Column + ";"
		}
	}
	return out
}

func (ab *abstractor) freshPred(e sql.Expr) template.Sym {
	s := template.Sym{Kind: template.KPred, ID: ab.predN}
	ab.predN++
	inst := predInstance{sym: s, expr: e}
	ab.preds = append(ab.preds, inst)
	ab.predsBy[predKey(e)] = append(ab.predsBy[predKey(e)], inst)
	return s
}

// predKey identifies a predicate by its text with the qualifier of every free
// column reference dropped, so that aliases do not matter: two predicates that
// read equally named columns compare equal.
func predKey(e sql.Expr) string {
	return sql.FormatExpr(sql.MapFreeColumns(e, nil, func(c *sql.ColumnRef) *sql.ColumnRef {
		return &sql.ColumnRef{Column: c.Column}
	}))
}

// lift converts a plan to a template, allocating symbols along the way.
func (ab *abstractor) lift(n plan.Node) (*template.Node, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return template.Input(ab.freshRel(x)), nil
	case *plan.Derived:
		return ab.lift(x.In)
	case *plan.Proj:
		cols, plain := x.AppendPlainCols(nil)
		if !plain {
			return nil, fmt.Errorf("verify: cannot abstract computed projection")
		}
		in, err := ab.lift(x.In)
		if err != nil {
			return nil, err
		}
		return template.Proj(ab.freshAttrs(cols, x.In), in), nil
	case *plan.Sel:
		in, err := ab.lift(x.In)
		if err != nil {
			return nil, err
		}
		cols := plan.AppendFreeColumns(nil, x.Pred, ab.schema)
		if len(cols) == 0 {
			cols = x.In.OutCols()[:1]
		}
		return template.Sel(ab.freshPred(x.Pred), ab.freshAttrs(cols, x.In), in), nil
	case *plan.InSub:
		in, err := ab.lift(x.In)
		if err != nil {
			return nil, err
		}
		sub, err := ab.lift(x.Sub)
		if err != nil {
			return nil, err
		}
		return template.InSub(ab.freshAttrs(x.Cols, x.In), in, sub), nil
	case *plan.Join:
		lc, rc, ok := x.EquiCols()
		if !ok {
			return nil, fmt.Errorf("verify: cannot abstract non-equi join")
		}
		l, err := ab.lift(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ab.lift(x.R)
		if err != nil {
			return nil, err
		}
		var op template.Op
		switch x.JoinKind {
		case sql.InnerJoin:
			op = template.OpIJoin
		case sql.LeftJoin:
			op = template.OpLJoin
		case sql.RightJoin:
			op = template.OpRJoin
		default:
			return nil, fmt.Errorf("verify: cannot abstract cross join")
		}
		return template.Join(op, ab.freshAttrs(lc, x.L), ab.freshAttrs(rc, x.R), l, r), nil
	case *plan.Dedup:
		in, err := ab.lift(x.In)
		if err != nil {
			return nil, err
		}
		return template.Dedup(in), nil
	case *plan.Sort:
		// Ordering is bag-irrelevant for equivalence checking.
		return ab.lift(x.In)
	default:
		return nil, fmt.Errorf("verify: cannot abstract %T", n)
	}
}

// constraints derives the rule's constraint set: equalities between symbols
// denoting the same concrete object, attribute-source facts, and the
// schema's integrity constraints.
func (ab *abstractor) constraints() *constraint.Set {
	cs := constraint.NewSet()
	add := func(c constraint.C) { cs = cs.Union(constraint.NewSet(c)) }

	for _, group := range ab.relByFP {
		for i := 1; i < len(group); i++ {
			add(constraint.New(constraint.RelEq, group[0].sym, group[i].sym))
		}
	}
	for _, group := range ab.attrsBy {
		for i := 1; i < len(group); i++ {
			add(constraint.New(constraint.AttrsEq, group[0].sym, group[i].sym))
		}
	}
	for _, group := range ab.predsBy {
		for i := 1; i < len(group); i++ {
			add(constraint.New(constraint.PredEq, group[0].sym, group[i].sym))
		}
	}
	// Attribute sources + integrity constraints, resolved per relation
	// instance whose subplan supplies the columns.
	for _, at := range ab.attrs {
		for _, rel := range ab.rels {
			if !colsWithin(at.cols, rel.node) {
				continue
			}
			add(constraint.New(constraint.SubAttrs, at.sym, template.AttrsOf(rel.sym)))
			if plan.UniqueOn(rel.node, at.cols, ab.schema) {
				add(constraint.New(constraint.Unique, rel.sym, at.sym))
			}
			if plan.NotNullOn(rel.node, at.cols, ab.schema) {
				add(constraint.New(constraint.NotNull, rel.sym, at.sym))
			}
		}
	}
	// Referential facts between relation instances.
	for _, a1 := range ab.attrs {
		for _, r1 := range ab.rels {
			if !colsWithin(a1.cols, r1.node) {
				continue
			}
			for _, a2 := range ab.attrs {
				if a1.sym == a2.sym {
					continue
				}
				for _, r2 := range ab.rels {
					if r1.sym == r2.sym || !colsWithin(a2.cols, r2.node) {
						continue
					}
					if plan.RefHolds(r1.node, a1.cols, r2.node, a2.cols, ab.schema) {
						add(constraint.New(constraint.RefAttrs, r1.sym, a1.sym, r2.sym, a2.sym))
					}
				}
			}
		}
	}
	return cs
}

func colsWithin(cols []plan.ColRef, p plan.Node) bool {
	out := map[plan.ColRef]bool{}
	for _, c := range p.OutCols() {
		out[c] = true
	}
	for _, c := range cols {
		if !out[c] {
			return false
		}
	}
	return true
}

// VerifyPlanPair abstracts two concrete plans and runs the built-in verifier
// on the resulting rule.
func VerifyPlanPair(a, b plan.Node, schema *sql.Schema) Report {
	src, dest, cs, err := AbstractPair(a, b, schema)
	if err != nil {
		return Report{Outcome: Unsupported, Detail: err.Error()}
	}
	return Verify(src, dest, cs)
}
