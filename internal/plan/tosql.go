package plan

import (
	"fmt"

	"wetune/internal/sql"
)

// ToSQL renders a logical plan back into a SELECT statement. Plans produced
// by Build round-trip; plans produced by rewriting may need derived-table
// wrappers, which the printer inserts automatically.
func ToSQL(n Node) *sql.SelectStmt {
	p := &sqlPrinter{}
	parts := p.fold(n)
	return parts.finish()
}

// ToSQLString is ToSQL followed by formatting.
func ToSQLString(n Node) string { return sql.Format(ToSQL(n)) }

type sqlPrinter struct {
	aliasN int
}

// queryParts accumulates the clauses of one SELECT while folding a plan
// subtree, tracking which slots are already occupied.
type queryParts struct {
	from     sql.TableExpr
	where    []sql.Expr
	items    []sql.SelectItem
	groupBy  []sql.Expr
	having   sql.Expr
	distinct bool
	orderBy  []sql.OrderItem
	limit    *int64
	compound *sql.SelectStmt // set when the subtree is a UNION

	outCols []ColRef
	// rendered maps a plan-space output column to the SQL expression that
	// denotes it in this SELECT's scope. Proj/Agg fill it when a derived-table
	// wrap renamed the underlying column (plan-space `s1.t0_a` may render as
	// `q1.t0_a_2`); Sort reads it so ORDER BY keys reference live names.
	rendered map[ColRef]sql.Expr
}

func (q *queryParts) renderAs(c ColRef, e sql.Expr) {
	if q.rendered == nil {
		q.rendered = map[ColRef]sql.Expr{}
	}
	q.rendered[c] = e
}

func (q *queryParts) hasItems() bool    { return len(q.items) > 0 || len(q.groupBy) > 0 }
func (q *queryParts) hasOrdering() bool { return len(q.orderBy) > 0 || q.limit != nil }

func (q *queryParts) finish() *sql.SelectStmt {
	if q.compound != nil {
		q.compound.OrderBy = q.orderBy
		q.compound.Limit = q.limit
		return q.compound
	}
	stmt := &sql.SelectStmt{
		Distinct: q.distinct,
		From:     q.from,
		Where:    sql.JoinConjuncts(q.where),
		GroupBy:  q.groupBy,
		Having:   q.having,
		OrderBy:  q.orderBy,
		Limit:    q.limit,
	}
	if len(q.items) == 0 {
		stmt.Items = []sql.SelectItem{{Star: true}}
	} else {
		stmt.Items = q.items
	}
	return stmt
}

// wrap turns accumulated parts into a derived table so further operators can
// start with fresh clause slots. When the subtree exposes duplicate column
// names (a self-join yields two copies of every column), the duplicates get
// explicit aliases so outer references through the derived alias stay
// unambiguous. The caller moves the references that pointed at q.outCols over
// to the result's with SubstituteCols — without a schema: an unqualified name
// inside an embedded statement keeps resolving by name.
func (p *sqlPrinter) wrap(q *queryParts) *queryParts {
	p.aliasN++
	alias := fmt.Sprintf("q%d", p.aliasN)
	outCols := q.outCols
	aliased := make([]string, len(outCols))
	for i, c := range outCols {
		aliased[i] = c.Column
	}
	names := map[string]int{}
	hasDup := false
	for _, c := range outCols {
		names[c.Column]++
		if names[c.Column] > 1 {
			hasDup = true
		}
	}
	if hasDup && q.compound == nil {
		if len(q.items) == 0 && len(q.groupBy) == 0 {
			// Star select: materialize explicit items so they can be aliased.
			for _, c := range outCols {
				q.items = append(q.items, sql.SelectItem{
					Expr: &sql.ColumnRef{Table: c.Table, Column: c.Column},
				})
			}
		}
		if len(q.items) == len(outCols) {
			seen := map[string]int{}
			for i := range q.items {
				name := outCols[i].Column
				seen[name]++
				if seen[name] > 1 {
					name = fmt.Sprintf("%s_%d", name, seen[name])
					q.items[i].Alias = name
				}
				aliased[i] = name
			}
		}
	}
	inner := q.finish()
	cols := make([]ColRef, len(outCols))
	for i := range outCols {
		cols[i] = ColRef{Table: alias, Column: aliased[i]}
	}
	out := &queryParts{
		from:    &sql.SubqueryTable{Select: inner, Alias: alias},
		outCols: cols,
	}
	// Persist the plan-space -> derived-alias mapping so operators that fold
	// later without triggering their own wrap (Sort, chiefly) can still name
	// the wrapped columns.
	for i := range outCols {
		out.renderAs(outCols[i], &sql.ColumnRef{Table: alias, Column: aliased[i]})
	}
	return out
}

func (p *sqlPrinter) fold(n Node) *queryParts {
	switch x := n.(type) {
	case *Scan:
		tn := &sql.TableName{Name: x.Table}
		if x.Binding != x.Table {
			tn.Alias = x.Binding
		}
		return &queryParts{from: tn, outCols: x.OutCols()}
	case *Derived:
		inner := p.fold(x.In).finish()
		cols := x.OutCols()
		return &queryParts{
			from:    &sql.SubqueryTable{Select: inner, Alias: x.Binding},
			outCols: cols,
		}
	case *Sel:
		q := p.fold(x.In)
		pred := x.Pred
		if q.compound != nil || q.hasItems() || q.distinct || q.hasOrdering() {
			before := q.outCols
			q = p.wrap(q)
			pred = SubstituteCols(pred, nil, before, q.outCols)
		}
		q.where = append(q.where, pred)
		return q
	case *InSub:
		q := p.fold(x.In)
		var before []ColRef
		wrapped := false
		if q.compound != nil || q.hasItems() || q.distinct || q.hasOrdering() {
			before = q.outCols
			q = p.wrap(q)
			wrapped = true
		}
		sub := p.fold(x.Sub).finish()
		var left sql.Expr
		if len(x.Cols) == 1 {
			left = &sql.ColumnRef{Table: x.Cols[0].Table, Column: x.Cols[0].Column}
		} else {
			t := &sql.TupleExpr{}
			for _, c := range x.Cols {
				t.Items = append(t.Items, &sql.ColumnRef{Table: c.Table, Column: c.Column})
			}
			left = t
		}
		if wrapped {
			left = SubstituteCols(left, nil, before, q.outCols)
		}
		q.where = append(q.where, &sql.InSubquery{E: left, Select: sub})
		return q
	case *Join:
		l := p.fold(x.L)
		r := p.fold(x.R)
		on := x.On
		if l.compound != nil || len(l.where) > 0 || l.hasItems() || l.distinct || l.hasOrdering() {
			before := x.L.OutCols()
			l = p.wrap(l)
			on = SubstituteCols(on, nil, before, l.outCols)
		}
		if r.compound != nil || len(r.where) > 0 || r.hasItems() || r.distinct || r.hasOrdering() {
			before := x.R.OutCols()
			r = p.wrap(r)
			on = SubstituteCols(on, nil, before, r.outCols)
		}
		je := &sql.JoinExpr{Kind: x.JoinKind, Left: l.from, Rite: r.from, On: on}
		return &queryParts{
			from:    je,
			outCols: append(append([]ColRef{}, l.outCols...), r.outCols...),
		}
	case *Proj:
		q := p.fold(x.In)
		var before []ColRef
		wrapped := false
		if q.compound != nil || q.hasItems() || q.distinct || q.hasOrdering() {
			before = q.outCols
			q = p.wrap(q)
			wrapped = true
		}
		outs := x.OutCols()
		for i, it := range x.Items {
			e := it.Expr
			if wrapped {
				e = SubstituteCols(e, nil, before, q.outCols)
			}
			alias := it.Alias
			if alias == "" {
				// A wrap may have renamed the underlying column (self-join
				// duplicates get _N suffixes); alias the item back to its
				// plan-space output name so the output schema stays stable.
				if cr, ok := e.(*sql.ColumnRef); ok && cr.Column != outs[i].Column {
					alias = outs[i].Column
				}
			}
			q.items = append(q.items, sql.SelectItem{Expr: e, Alias: alias})
			if cr, ok := e.(*sql.ColumnRef); ok {
				q.renderAs(outs[i], cr)
			} else if alias != "" {
				q.renderAs(outs[i], &sql.ColumnRef{Column: alias})
			}
		}
		q.outCols = outs
		return q
	case *Dedup:
		q := p.fold(x.In)
		if q.compound != nil || q.distinct || q.hasOrdering() {
			q = p.wrap(q)
		}
		q.distinct = true
		return q
	case *Agg:
		q := p.fold(x.In)
		var before []ColRef
		wrapped := false
		if q.compound != nil || q.hasItems() || q.distinct || q.hasOrdering() {
			before = q.outCols
			q = p.wrap(q)
			wrapped = true
		}
		remap := func(e sql.Expr) sql.Expr {
			if wrapped {
				return SubstituteCols(e, nil, before, q.outCols)
			}
			return e
		}
		outs := x.OutCols()
		for i, g := range x.GroupBy {
			gref := remap(&sql.ColumnRef{Table: g.Table, Column: g.Column})
			q.groupBy = append(q.groupBy, gref)
			item := sql.SelectItem{Expr: gref}
			if cr, ok := gref.(*sql.ColumnRef); ok {
				if cr.Column != outs[i].Column {
					// Same renaming hazard as Proj: keep the plan-space name.
					item.Alias = outs[i].Column
				}
				q.renderAs(outs[i], cr)
			}
			q.items = append(q.items, item)
		}
		for _, it := range x.Items {
			f := &sql.FuncCall{Name: it.Func, Star: it.Star, Distinct: it.Distinct}
			if it.Arg != nil {
				f.Args = []sql.Expr{remap(it.Arg)}
			}
			q.items = append(q.items, sql.SelectItem{Expr: f, Alias: it.Alias})
		}
		q.having = remap(x.Having)
		q.outCols = outs
		return q
	case *Union:
		l := p.fold(x.L).finish()
		r := p.fold(x.R).finish()
		op := "UNION"
		if x.All {
			op = "UNION ALL"
		}
		return &queryParts{
			compound: &sql.SelectStmt{SetOp: op, SetLeft: l, SetRight: r},
			outCols:  x.OutCols(),
		}
	case *Sort:
		q := p.fold(x.In)
		var before []ColRef
		wrapped := false
		if q.hasOrdering() {
			before = q.outCols
			q = p.wrap(q)
			wrapped = true
		}
		for _, k := range x.Keys {
			var e sql.Expr = &sql.ColumnRef{Table: k.Col.Table, Column: k.Col.Column}
			if wrapped {
				e = SubstituteCols(e, nil, before, q.outCols)
			} else if r, ok := q.rendered[k.Col]; ok {
				// The key's plan-space column may render under another name
				// below (Agg/Proj over a wrapped self-join); use the live
				// expression recorded by the fold that renamed it.
				e = r
			}
			q.orderBy = append(q.orderBy, sql.OrderItem{Expr: e, Desc: k.Desc})
		}
		return q
	case *Limit:
		q := p.fold(x.In)
		if q.limit != nil {
			q = p.wrap(q)
		}
		n := x.N
		q.limit = &n
		return q
	}
	panic(fmt.Sprintf("plan: ToSQL cannot fold %T", n))
}
