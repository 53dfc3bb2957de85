package rewrite

import (
	"fmt"
	"slices"
	"sort"

	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/template"
)

// Matcher matches rule templates against plans and instantiates rewrites. The
// zero value with Schema set is ready; the unexported fields are scratch that
// attempts reuse, so one Matcher serves one goroutine at a time.
type Matcher struct {
	Schema *sql.Schema

	// b holds an attempt's bindings, and cols is its column arena: the
	// attribute lists it binds and the column lists it reads. Both are reset
	// by the next attempt.
	b    binding
	cols []plan.ColRef

	// Scratch of the equivalence checks: the alias-insensitive fingerprints
	// aliasEqual compares, and the binding lists (plan.AppendBindings) of the
	// one or two subplans under comparison.
	fpA, fpB     []byte
	bindA, bindB []string
}

// release drops what the scratch references of the last call's query (plans,
// and binding names that are slices of its text) and keeps the buffers.
func (m *Matcher) release() {
	m.Schema = nil
	m.b.release()
	clear(m.cols[:cap(m.cols)])
	m.cols = m.cols[:0]
	clear(m.bindA[:cap(m.bindA)])
	clear(m.bindB[:cap(m.bindB)])
}

// ApplyCompiled tries to apply a pre-compiled rule at the root of fragment n,
// returning the replacement fragment, or ok=false when the rule does not
// match there. The compiled form carries the rule's symbol slots and
// constraint list, resolved once at compile time, so an attempt that fails
// allocates nothing of its own.
func (m *Matcher) ApplyCompiled(cr *CompiledRule, n plan.Node) (plan.Node, bool) {
	b := &m.b
	b.reset(cr)
	m.cols = m.cols[:0]
	if !m.match(cr.Rule.Src, n, b) {
		return nil, false
	}
	if !m.checkConstraints(cr, b) {
		return nil, false
	}
	res := &resolver{m: m, b: b, cr: cr}
	out, err := res.instantiate(cr.Rule.Dest)
	if err != nil {
		return nil, false
	}
	if m.cols, err = plan.Check(m.cols, out, m.Schema); err != nil {
		return nil, false
	}
	// The replacement must keep the fragment's output arity; column names may
	// change only through value-preserving column switches (rules 17/18).
	start := len(m.cols)
	sameArity := len(m.outCols(out)) == len(m.outCols(n))
	m.cols = m.cols[:start]
	if !sameArity {
		return nil, false
	}
	return out, true
}

// resolver instantiates destination templates, resolving destination-only
// symbols through the rule's pre-compiled equivalence constraints.
type resolver struct {
	m  *Matcher
	b  *binding
	cr *CompiledRule
}

func (r *resolver) rel(sym template.Sym) (plan.Node, error) {
	if p, ok := bound(r.b.rels, r.cr.class, r.cr.slotOf(sym)); ok {
		return p, nil
	}
	return nil, fmt.Errorf("rewrite: unbound relation symbol %s", sym)
}

func (r *resolver) attrsOf(sym template.Sym) (attrsBinding, error) {
	if a, ok := bound(r.b.attrs, r.cr.class, r.cr.slotOf(sym)); ok {
		return r.relocate(sym, a), nil
	}
	return attrsBinding{}, fmt.Errorf("rewrite: unbound attrs symbol %s", sym)
}

// relocate honors a SubAttrs(sym, a_r) constraint on the resolved symbol: the
// rule may demand the attribute list be read from a specific relation (the
// column-switch rules 30/103 place an AttrsEq-equal list on the other side of
// a self join). Columns are remapped into that relation's output by name.
//
// Moving a read between two instances of one relation is value-preserving
// only when the rule pins the instances to the same row — which the shipped
// rules do with a Unique constraint on the RelEq class. Relocation therefore
// requires such a Unique (pre-checked at compile time in relocTarget);
// without it the original binding is kept (and the resulting no-op candidate
// is dropped).
func (r *resolver) relocate(sym template.Sym, a attrsBinding) attrsBinding {
	for _, relSym := range r.cr.relocTarget[sym] {
		relPlan, err := r.rel(relSym)
		if err != nil {
			continue
		}
		out := relPlan.OutCols()
		remapped := make([]plan.ColRef, len(a.cols))
		ok := true
		for i, col := range a.cols {
			// A column the relation already exposes stays put: relocation only
			// moves columns that live on the other instance of the relation.
			// Without this, a self-join (both instances expose every column
			// name) would silently rebind the attribute to the wrong instance.
			exact := false
			for _, oc := range out {
				if oc == col {
					remapped[i] = oc
					exact = true
					break
				}
			}
			if exact {
				continue
			}
			matches := 0
			for _, oc := range out {
				if oc.Column == col.Column {
					remapped[i] = oc
					matches++
				}
			}
			if matches != 1 {
				// Missing or ambiguous target: relocation would guess, so try
				// the next pinned relation (or keep the original binding).
				ok = false
				break
			}
		}
		if ok {
			return attrsBinding{cols: remapped, owner: relPlan}
		}
	}
	return a
}

func (r *resolver) pred(sym template.Sym) (sql.Expr, error) {
	if p, ok := bound(r.b.preds, r.cr.class, r.cr.slotOf(sym)); ok {
		if p.expr == noHaving {
			return &sql.Literal{Val: sql.NewBool(true)}, nil
		}
		return p.expr, nil
	}
	return nil, fmt.Errorf("rewrite: unbound predicate symbol %s", sym)
}

func (r *resolver) aggItems(sym template.Sym) ([]plan.AggItem, error) {
	if f, ok := bound(r.b.funcs, r.cr.class, r.cr.slotOf(sym)); ok {
		return f, nil
	}
	return nil, fmt.Errorf("rewrite: unbound aggregate symbol %s", sym)
}

// srcAttrsForPred finds the attribute symbol paired with the predicate
// symbol in the rule's source template (for column remapping when the
// destination reads the predicate over different columns). Pre-resolved at
// compile time.
func (r *resolver) srcAttrsForPred(pred template.Sym) (template.Sym, bool) {
	s, ok := r.cr.predAttrs[pred]
	return s, ok
}

func (r *resolver) instantiate(tpl *template.Node) (plan.Node, error) {
	switch tpl.Op {
	case template.OpInput:
		return r.rel(tpl.Rel)
	case template.OpProj:
		in, err := r.instantiate(tpl.Children[0])
		if err != nil {
			return nil, err
		}
		a, err := r.attrsOf(tpl.Attrs)
		if err != nil {
			return nil, err
		}
		items := make([]plan.ProjItem, len(a.cols))
		for i, c := range a.cols {
			items[i] = plan.ProjItem{Expr: &sql.ColumnRef{Table: c.Table, Column: c.Column}}
		}
		return &plan.Proj{Items: items, In: in}, nil
	case template.OpSel:
		in, err := r.instantiate(tpl.Children[0])
		if err != nil {
			return nil, err
		}
		pred, err := r.pred(tpl.Pred)
		if err != nil {
			return nil, err
		}
		// Remap predicate columns when the destination attribute binding
		// differs from the source's (rules 19/30: read the other join side).
		destA, err := r.attrsOf(tpl.Attrs)
		if err == nil {
			if srcSym, ok := r.srcAttrsForPred(tpl.Pred); ok && srcSym != tpl.Attrs {
				if srcA, err2 := r.attrsOf(srcSym); err2 == nil &&
					len(srcA.cols) == len(destA.cols) {
					pred = plan.SubstituteCols(pred, r.m.Schema, srcA.cols, destA.cols)
				}
			}
		}
		// The predicate may still reference a different occurrence of the
		// same relation (RelEq-unified symbols carry different aliases);
		// repair qualifiers by unique column-name match against the input.
		pred = r.m.remapToInput(pred, in)
		return &plan.Sel{Pred: pred, In: in}, nil
	case template.OpInSub:
		in, err := r.instantiate(tpl.Children[0])
		if err != nil {
			return nil, err
		}
		sub, err := r.instantiate(tpl.Children[1])
		if err != nil {
			return nil, err
		}
		a, err := r.attrsOf(tpl.Attrs)
		if err != nil {
			return nil, err
		}
		// The plan keeps the list, which may live in the attempt's arena.
		return &plan.InSub{Cols: slices.Clone(a.cols), In: in, Sub: sub}, nil
	case template.OpIJoin, template.OpLJoin, template.OpRJoin:
		l, err := r.instantiate(tpl.Children[0])
		if err != nil {
			return nil, err
		}
		rr, err := r.instantiate(tpl.Children[1])
		if err != nil {
			return nil, err
		}
		al, err := r.attrsOf(tpl.Attrs)
		if err != nil {
			return nil, err
		}
		ar, err := r.attrsOf(tpl.Attrs2)
		if err != nil {
			return nil, err
		}
		if len(al.cols) != len(ar.cols) || len(al.cols) == 0 {
			return nil, fmt.Errorf("rewrite: join attribute arity mismatch")
		}
		// Two independent fragments may carry clashing table aliases (e.g. an
		// IN-subquery turned join over the same base table): rename the right
		// side apart.
		var renamed map[string]string
		rr, renamed = r.m.disjoinAliases(l, rr)
		arCols := ar.cols
		if renamed != nil {
			arCols = make([]plan.ColRef, len(ar.cols))
			for i, c := range ar.cols {
				if nb, ok := renamed[c.Table]; ok {
					arCols[i] = plan.ColRef{Table: nb, Column: c.Column}
				} else {
					arCols[i] = c
				}
			}
		}
		var on sql.Expr
		for i := range al.cols {
			eq := &sql.BinaryExpr{Op: "=",
				L: &sql.ColumnRef{Table: al.cols[i].Table, Column: al.cols[i].Column},
				R: &sql.ColumnRef{Table: arCols[i].Table, Column: arCols[i].Column}}
			if on == nil {
				on = eq
			} else {
				on = &sql.BinaryExpr{Op: "AND", L: on, R: eq}
			}
		}
		kind := sql.InnerJoin
		if tpl.Op == template.OpLJoin {
			kind = sql.LeftJoin
		} else if tpl.Op == template.OpRJoin {
			kind = sql.RightJoin
		}
		return &plan.Join{JoinKind: kind, On: on, L: l, R: rr}, nil
	case template.OpDedup:
		in, err := r.instantiate(tpl.Children[0])
		if err != nil {
			return nil, err
		}
		return &plan.Dedup{In: in}, nil
	case template.OpAgg:
		in, err := r.instantiate(tpl.Children[0])
		if err != nil {
			return nil, err
		}
		group, err := r.attrsOf(tpl.Attrs)
		if err != nil {
			return nil, err
		}
		items, err := r.aggItems(tpl.Func)
		if err != nil {
			return nil, err
		}
		having, err := r.pred(tpl.Pred)
		if err != nil {
			having = nil
		}
		if lit, ok := having.(*sql.Literal); ok && lit.Val.Kind == sql.KindBool && lit.Val.B {
			having = nil // the synthetic TRUE placeholder
		}
		return &plan.Agg{GroupBy: slices.Clone(group.cols), Items: items, Having: having, In: in}, nil
	case template.OpUnion:
		l, err := r.instantiate(tpl.Children[0])
		if err != nil {
			return nil, err
		}
		rr, err := r.instantiate(tpl.Children[1])
		if err != nil {
			return nil, err
		}
		return &plan.Union{All: true, L: l, R: rr}, nil
	}
	return nil, fmt.Errorf("rewrite: cannot instantiate %v", tpl.Op)
}

// renameBindings deep-rewrites a subplan's table bindings and every column
// reference that uses them, the correlated references of embedded statements
// included (copy-on-write: the original statement stays as it is). Used when a
// rule instantiation would place two subplans with clashing aliases under one
// operator.
func renameBindings(p plan.Node, schema *sql.Schema, rename map[string]string) plan.Node {
	binding := func(b string) string {
		if nb, ok := rename[b]; ok {
			return nb
		}
		return b
	}
	return plan.Transform(p, binding, func(e sql.Expr) sql.Expr {
		return sql.MapFreeColumns(e, schema, func(c *sql.ColumnRef) *sql.ColumnRef {
			if nb, ok := rename[c.Table]; ok {
				return &sql.ColumnRef{Table: nb, Column: c.Column}
			}
			return c
		})
	})
}

// disjoinAliases renames the right subplan's bindings away from the left's,
// returning the rewritten right subplan and the alias mapping applied. The
// clashing bindings are processed in sorted order so the generated aliases —
// and therefore the rewritten SQL — are stable across runs (map iteration
// order must not leak into output). The binding lists are matcher scratch.
func (m *Matcher) disjoinAliases(l, r plan.Node) (plan.Node, map[string]string) {
	m.bindA = plan.AppendBindings(m.bindA[:0], l)
	m.bindB = plan.AppendBindings(m.bindB[:0], r)
	taken, rBindings := m.bindA, m.bindB
	sort.Strings(rBindings)
	var clash map[string]string
	n := 1
	for _, b := range rBindings {
		if !slices.Contains(taken, b) {
			continue
		}
		for {
			candidate := fmt.Sprintf("%s_w%d", b, n)
			n++
			if !slices.Contains(taken, candidate) {
				if clash == nil {
					clash = map[string]string{}
				}
				clash[b] = candidate
				taken = append(taken, candidate)
				break
			}
		}
	}
	m.bindA = taken
	if clash == nil {
		return r, nil
	}
	return renameBindings(r, m.Schema, clash), clash
}

// remapToInput rewrites column references that do not resolve against the
// input's output columns to the unique input column with the same name.
// Sound when the rule's equivalence constraints identify the relations the
// two aliases denote (RelEq); ambiguous names are left untouched (plan.Check
// rejects the candidate). The input's columns are read into the column arena.
func (m *Matcher) remapToInput(e sql.Expr, in plan.Node) sql.Expr {
	start := len(m.cols)
	defer func() { m.cols = m.cols[:start] }()
	out := m.outCols(in)
	return sql.MapFreeColumns(e, m.Schema, func(c *sql.ColumnRef) *sql.ColumnRef {
		if slices.Contains(out, plan.ColRef{Table: c.Table, Column: c.Column}) {
			return c
		}
		sameName := -1
		for i, oc := range out {
			if oc.Column == c.Column {
				if sameName >= 0 {
					return c // ambiguous
				}
				sameName = i
			}
		}
		if sameName < 0 {
			return c
		}
		return &sql.ColumnRef{Table: out[sameName].Table, Column: c.Column}
	})
}
