package rewrite

import (
	"fmt"
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

	// Scratch of the equivalence checks: the alias-insensitive fingerprints
	// aliasEqual compares, and the binding lists (plan.AppendBindings) of the
	// one or two subplans under comparison.
	fpA, fpB     []byte
	bindA, bindB []string
}

// release drops what the scratch references of the last call's query (binding
// names are slices of its text) and keeps the buffers.
func (m *Matcher) release() {
	m.Schema = nil
	clear(m.bindA[:cap(m.bindA)])
	clear(m.bindB[:cap(m.bindB)])
}

// ApplyCompiled tries to apply a pre-compiled rule at the root of fragment n,
// returning the replacement fragment, or ok=false when the rule does not
// match there. The compiled form carries the constraint closure resolved once
// at compile time, so matching allocates only the per-attempt bindings.
func (m *Matcher) ApplyCompiled(cr *CompiledRule, n plan.Node) (plan.Node, bool) {
	b := newBinding()
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
	if err := validate(out); err != nil {
		return nil, false
	}
	// The replacement must keep the fragment's output arity; column names may
	// change only through value-preserving column switches (rules 17/18).
	if len(out.OutCols()) != len(n.OutCols()) {
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
	if p, ok := r.b.rels[sym]; ok {
		return p, nil
	}
	for _, s := range r.cr.reps[sym] {
		if p, ok := r.b.rels[s]; ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("rewrite: unbound relation symbol %s", sym)
}

func (r *resolver) attrsOf(sym template.Sym) (attrsBinding, error) {
	if a, ok := r.b.attrs[sym]; ok {
		return r.relocate(sym, a), nil
	}
	for _, s := range r.cr.reps[sym] {
		if a, ok := r.b.attrs[s]; ok {
			return r.relocate(sym, a), nil
		}
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
	if p, ok := r.b.preds[sym]; ok {
		return p.expr, nil
	}
	for _, s := range r.cr.reps[sym] {
		if p, ok := r.b.preds[s]; ok {
			return p.expr, nil
		}
	}
	return nil, fmt.Errorf("rewrite: unbound predicate symbol %s", sym)
}

func (r *resolver) aggItems(sym template.Sym) ([]plan.AggItem, error) {
	if f, ok := r.b.funcs[sym]; ok {
		return f, nil
	}
	for _, s := range r.cr.reps[sym] {
		if f, ok := r.b.funcs[s]; ok {
			return f, nil
		}
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
					pred = substituteCols(pred, srcA.cols, destA.cols)
				}
			}
		}
		// The predicate may still reference a different occurrence of the
		// same relation (RelEq-unified symbols carry different aliases);
		// repair qualifiers by unique column-name match against the input.
		pred = remapToInput(pred, in)
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
		return &plan.InSub{Cols: a.cols, In: in, Sub: sub}, nil
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
		rr, renamed = disjoinAliases(l, rr)
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
		return &plan.Agg{GroupBy: group.cols, Items: items, Having: having, In: in}, nil
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

// substituteCols rewrites column references positionally (from[i] -> to[i]).
func substituteCols(e sql.Expr, from, to []plan.ColRef) sql.Expr {
	mapping := map[plan.ColRef]plan.ColRef{}
	for i := range from {
		mapping[from[i]] = to[i]
	}
	var rec func(e sql.Expr) sql.Expr
	rec = func(e sql.Expr) sql.Expr {
		switch x := e.(type) {
		case *sql.ColumnRef:
			if nc, ok := mapping[plan.ColRef{Table: x.Table, Column: x.Column}]; ok {
				return &sql.ColumnRef{Table: nc.Table, Column: nc.Column}
			}
			return x
		case *sql.BinaryExpr:
			return &sql.BinaryExpr{Op: x.Op, L: rec(x.L), R: rec(x.R)}
		case *sql.UnaryExpr:
			return &sql.UnaryExpr{Op: x.Op, E: rec(x.E)}
		case *sql.IsNullExpr:
			return &sql.IsNullExpr{E: rec(x.E), Negated: x.Negated}
		case *sql.InListExpr:
			list := make([]sql.Expr, len(x.List))
			for i, it := range x.List {
				list[i] = rec(it)
			}
			return &sql.InListExpr{E: rec(x.E), List: list, Negated: x.Negated}
		case *sql.TupleExpr:
			items := make([]sql.Expr, len(x.Items))
			for i, it := range x.Items {
				items[i] = rec(it)
			}
			return &sql.TupleExpr{Items: items}
		case *sql.FuncCall:
			args := make([]sql.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = rec(a)
			}
			return &sql.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct, Star: x.Star}
		default:
			return e
		}
	}
	return rec(e)
}

// validate checks that every column reference in the plan resolves against
// its operator's input columns, rejecting broken instantiations.
func validate(n plan.Node) error {
	resolvable := func(cols []plan.ColRef, c plan.ColRef) bool {
		for _, cc := range cols {
			if cc == c || (cc.Column == c.Column && c.Table == "") {
				return true
			}
		}
		return false
	}
	var check func(n plan.Node) error
	check = func(n plan.Node) error {
		for i, k := 0, plan.NumChildren(n); i < k; i++ {
			if err := check(plan.Child(n, i)); err != nil {
				return err
			}
		}
		switch x := n.(type) {
		case *plan.Proj:
			in := x.In.OutCols()
			for _, it := range x.Items {
				if cr, ok := it.Expr.(*sql.ColumnRef); ok {
					if !resolvable(in, plan.ColRef{Table: cr.Table, Column: cr.Column}) {
						return fmt.Errorf("rewrite: dangling projection column %s.%s", cr.Table, cr.Column)
					}
				}
			}
		case *plan.Sel:
			in := x.In.OutCols()
			for _, c := range predColumns(x.Pred) {
				if !resolvable(in, c) {
					return fmt.Errorf("rewrite: dangling predicate column %s", c)
				}
			}
		case *plan.InSub:
			in := x.In.OutCols()
			for _, c := range x.Cols {
				if !resolvable(in, c) {
					return fmt.Errorf("rewrite: dangling IN column %s", c)
				}
			}
			if len(x.Sub.OutCols()) != len(x.Cols) {
				return fmt.Errorf("rewrite: IN subquery arity mismatch")
			}
		case *plan.Join:
			all := x.OutCols()
			for _, c := range predColumns(x.On) {
				if !resolvable(all, c) {
					return fmt.Errorf("rewrite: dangling join column %s", c)
				}
			}
		case *plan.Agg:
			in := x.In.OutCols()
			for _, c := range x.GroupBy {
				if !resolvable(in, c) {
					return fmt.Errorf("rewrite: dangling group-by column %s", c)
				}
			}
			for _, it := range x.Items {
				for _, c := range predColumns(it.Arg) {
					if !resolvable(in, c) {
						return fmt.Errorf("rewrite: dangling aggregate column %s", c)
					}
				}
			}
			for _, c := range predColumns(x.Having) {
				if !resolvable(in, c) && !resolvable(x.OutCols(), c) {
					return fmt.Errorf("rewrite: dangling HAVING column %s", c)
				}
			}
		case *plan.Sort:
			in := x.In.OutCols()
			for _, k := range x.Keys {
				if !resolvable(in, k.Col) {
					return fmt.Errorf("rewrite: dangling sort column %s", k.Col)
				}
			}
		}
		return nil
	}
	return check(n)
}

// bindingsOf collects the table bindings (aliases) a subplan exposes.
func bindingsOf(p plan.Node) map[string]bool {
	out := map[string]bool{}
	plan.Walk(p, func(n plan.Node) bool {
		switch x := n.(type) {
		case *plan.Scan:
			out[x.Binding] = true
		case *plan.Derived:
			out[x.Binding] = true
		}
		return true
	})
	return out
}

// renameBindings deep-rewrites a subplan's table bindings and every column
// reference that uses them. Used when a rule instantiation would place two
// subplans with clashing aliases under one operator.
func renameBindings(p plan.Node, rename map[string]string) plan.Node {
	mapCol := func(c plan.ColRef) plan.ColRef {
		if nb, ok := rename[c.Table]; ok {
			return plan.ColRef{Table: nb, Column: c.Column}
		}
		return c
	}
	var mapExpr func(e sql.Expr) sql.Expr
	mapExpr = func(e sql.Expr) sql.Expr {
		switch x := e.(type) {
		case nil:
			return nil
		case *sql.ColumnRef:
			if nb, ok := rename[x.Table]; ok {
				return &sql.ColumnRef{Table: nb, Column: x.Column}
			}
			return x
		case *sql.BinaryExpr:
			return &sql.BinaryExpr{Op: x.Op, L: mapExpr(x.L), R: mapExpr(x.R)}
		case *sql.UnaryExpr:
			return &sql.UnaryExpr{Op: x.Op, E: mapExpr(x.E)}
		case *sql.IsNullExpr:
			return &sql.IsNullExpr{E: mapExpr(x.E), Negated: x.Negated}
		case *sql.InListExpr:
			list := make([]sql.Expr, len(x.List))
			for i, it := range x.List {
				list[i] = mapExpr(it)
			}
			return &sql.InListExpr{E: mapExpr(x.E), List: list, Negated: x.Negated}
		case *sql.TupleExpr:
			items := make([]sql.Expr, len(x.Items))
			for i, it := range x.Items {
				items[i] = mapExpr(it)
			}
			return &sql.TupleExpr{Items: items}
		case *sql.FuncCall:
			args := make([]sql.Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = mapExpr(a)
			}
			return &sql.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct, Star: x.Star}
		default:
			return e
		}
	}
	var rec func(n plan.Node) plan.Node
	rec = func(n plan.Node) plan.Node {
		switch x := n.(type) {
		case *plan.Scan:
			if nb, ok := rename[x.Binding]; ok {
				cols := make([]plan.ColRef, len(x.Cols))
				for i, c := range x.Cols {
					cols[i] = plan.ColRef{Table: nb, Column: c.Column}
				}
				return &plan.Scan{Table: x.Table, Binding: nb, Cols: cols}
			}
			return x
		case *plan.Derived:
			nb := x.Binding
			if r, ok := rename[nb]; ok {
				nb = r
			}
			return &plan.Derived{Binding: nb, In: rec(x.In)}
		case *plan.Proj:
			items := make([]plan.ProjItem, len(x.Items))
			for i, it := range x.Items {
				items[i] = plan.ProjItem{Expr: mapExpr(it.Expr), Alias: it.Alias}
			}
			return &plan.Proj{Items: items, In: rec(x.In)}
		case *plan.Sel:
			return &plan.Sel{Pred: mapExpr(x.Pred), In: rec(x.In)}
		case *plan.InSub:
			cols := make([]plan.ColRef, len(x.Cols))
			for i, c := range x.Cols {
				cols[i] = mapCol(c)
			}
			return &plan.InSub{Cols: cols, In: rec(x.In), Sub: rec(x.Sub)}
		case *plan.Join:
			return &plan.Join{JoinKind: x.JoinKind, On: mapExpr(x.On), L: rec(x.L), R: rec(x.R)}
		case *plan.Dedup:
			return &plan.Dedup{In: rec(x.In)}
		case *plan.Agg:
			group := make([]plan.ColRef, len(x.GroupBy))
			for i, c := range x.GroupBy {
				group[i] = mapCol(c)
			}
			items := make([]plan.AggItem, len(x.Items))
			for i, it := range x.Items {
				items[i] = plan.AggItem{Func: it.Func, Arg: mapExpr(it.Arg), Star: it.Star, Distinct: it.Distinct, Alias: it.Alias}
			}
			return &plan.Agg{GroupBy: group, Items: items, Having: mapExpr(x.Having), In: rec(x.In)}
		case *plan.Union:
			return &plan.Union{All: x.All, L: rec(x.L), R: rec(x.R)}
		case *plan.Sort:
			keys := make([]plan.SortKey, len(x.Keys))
			for i, k := range x.Keys {
				keys[i] = plan.SortKey{Col: mapCol(k.Col), Desc: k.Desc}
			}
			return &plan.Sort{Keys: keys, In: rec(x.In)}
		case *plan.Limit:
			return &plan.Limit{N: x.N, In: rec(x.In)}
		}
		return n
	}
	return rec(p)
}

// disjoinAliases renames the right subplan's bindings away from the left's,
// returning the rewritten right subplan and the alias mapping applied. The
// clashing bindings are processed in sorted order so the generated aliases —
// and therefore the rewritten SQL — are stable across runs (map iteration
// order must not leak into output).
func disjoinAliases(l, r plan.Node) (plan.Node, map[string]string) {
	taken := bindingsOf(l)
	rBindings := make([]string, 0, 4)
	for b := range bindingsOf(r) {
		rBindings = append(rBindings, b)
	}
	sort.Strings(rBindings)
	clash := map[string]string{}
	n := 1
	for _, b := range rBindings {
		if !taken[b] {
			continue
		}
		for {
			candidate := fmt.Sprintf("%s_w%d", b, n)
			n++
			if !taken[candidate] {
				clash[b] = candidate
				taken[candidate] = true
				break
			}
		}
	}
	if len(clash) == 0 {
		return r, nil
	}
	return renameBindings(r, clash), clash
}

// remapToInput rewrites column references that do not resolve against the
// input's output columns to the unique input column with the same name.
// Sound when the rule's equivalence constraints identify the relations the
// two aliases denote (RelEq); ambiguous names are left untouched (validate
// rejects the candidate).
func remapToInput(e sql.Expr, in plan.Node) sql.Expr {
	out := in.OutCols()
	resolves := func(c plan.ColRef) bool {
		for _, cc := range out {
			if cc == c {
				return true
			}
		}
		return false
	}
	uniqueByName := func(name string) (plan.ColRef, bool) {
		var found plan.ColRef
		count := 0
		for _, cc := range out {
			if cc.Column == name {
				found = cc
				count++
			}
		}
		return found, count == 1
	}
	mapping := map[plan.ColRef]plan.ColRef{}
	for _, c := range predColumns(e) {
		if resolves(c) {
			continue
		}
		if repl, ok := uniqueByName(c.Column); ok {
			mapping[c] = repl
		}
	}
	if len(mapping) == 0 {
		return e
	}
	var from, to []plan.ColRef
	for f, t := range mapping {
		from = append(from, f)
		to = append(to, t)
	}
	return substituteCols(e, from, to)
}
