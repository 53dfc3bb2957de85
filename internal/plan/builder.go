package plan

import (
	"fmt"

	"wetune/internal/sql"
)

// MaxNodes bounds the operators of a plan, as Size counts them: Build
// rejects a larger plan and Check reports one. The rewrite search checks
// every candidate against the whole plan at every operator, so its work
// grows with the cube of the plan's size: a WHERE of 2,000 conjuncts, one Sel
// each, held a server worker for over a minute. The largest plan of the
// 2,464-query rewrite corpus has 6 operators; the bound is 32 times that,
// like sql.MaxNesting.
const MaxNodes = 6 * 32

// Build lowers a parsed SELECT statement into a logical plan tree against the
// given schema. Conjunctions in WHERE become stacked Sel operators, and each
// non-negated, uncorrelated IN-subquery conjunct becomes an InSub operator —
// the shape the paper's templates are defined over.
func Build(stmt *sql.SelectStmt, schema *sql.Schema) (Node, error) {
	b := &builder{schema: schema}
	b.sizeSlab(stmt)
	return bounded(b.buildSelect(stmt, nil))
}

// bounded passes on a lowered plan unless it has more than MaxNodes
// operators.
func bounded(n Node, err error) (Node, error) {
	if err == nil && Size(n) > MaxNodes {
		return nil, fmt.Errorf("plan: %d operators, more than the %d a plan may have", Size(n), MaxNodes)
	}
	return n, err
}

// MustBuild is Build that panics on error; for static tables in tests.
func MustBuild(stmt *sql.SelectStmt, schema *sql.Schema) Node {
	n, err := Build(stmt, schema)
	if err != nil {
		panic(fmt.Sprintf("plan.MustBuild: %v", err))
	}
	return n
}

// BuildSQL parses and lowers in one step.
func BuildSQL(query string, schema *sql.Schema) (Node, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return Build(stmt, schema)
}

// BuildCorrelated lowers a subquery whose free column references may resolve
// against the columns of its enclosing rows, given innermost first; a name
// resolves at the innermost level that has it. The engine supplies the
// values at execution time. It also reports whether the subquery reads an
// enclosing row, in any clause at any nesting depth.
func BuildCorrelated(stmt *sql.SelectStmt, schema *sql.Schema, outer [][]ColRef) (Node, bool, error) {
	var sc *scope
	for i := len(outer) - 1; i >= 0; i-- {
		sc = &scope{cols: outer[i], outer: sc}
	}
	b := &builder{schema: schema}
	b.sizeSlab(stmt)
	n, err := bounded(b.buildSelect(stmt, sc))
	if err != nil {
		return nil, false, err
	}
	return n, b.correlated(stmt, sc), nil
}

type builder struct {
	schema *sql.Schema
	// slab holds, in one allocation per Build, the column lists of the scans
	// and the resolved column references (a *ColRef converts to a
	// *sql.ColumnRef: the two structs are the same). Past its end each is
	// allocated on its own.
	slab []ColRef
}

// sizeSlab sizes the slab for stmt and the statements Build lowers with it.
// The count is exact but for two cases: a correlated IN subquery, which stays
// inside its predicate, is counted as if it were lowered, and a star beside
// other items is expanded outside the slab.
func (b *builder) sizeSlab(stmt *sql.SelectStmt) {
	b.slab = make([]ColRef, b.count(stmt))
}

// count returns the number of columns the tables of s scan plus the number
// of column references its clauses hold, and the same for the statements
// nested in it that become plan operators: derived tables, UNION arms and
// IN subqueries.
func (b *builder) count(s *sql.SelectStmt) int {
	if s.SetOp != "" {
		return b.count(s.SetLeft) + b.count(s.SetRight)
	}
	n := 0
	refs := func(e sql.Expr) {
		sql.WalkExprs(e, func(e sql.Expr) bool {
			switch x := e.(type) {
			case *sql.ColumnRef:
				n++
			case *sql.InSubquery:
				if !x.Negated {
					n += b.count(x.Select)
				}
				return false // the tested expression is not resolved either way
			}
			return true
		})
	}
	var from func(t sql.TableExpr)
	from = func(t sql.TableExpr) {
		switch x := t.(type) {
		case *sql.TableName:
			if def, ok := b.schema.Table(x.Name); ok {
				n += len(def.Columns)
			}
		case *sql.JoinExpr:
			from(x.Left)
			from(x.Rite)
			refs(x.On)
		case *sql.SubqueryTable:
			n += b.count(x.Select)
		}
	}
	for _, it := range s.Items {
		refs(it.Expr)
	}
	from(s.From)
	refs(s.Where)
	refs(s.Having)
	return n
}

// take returns n columns from the slab.
func (b *builder) take(n int) []ColRef {
	if len(b.slab) < n {
		return make([]ColRef, n)
	}
	cols := b.slab[:n:n]
	b.slab = b.slab[n:]
	return cols
}

// column returns a resolved column reference from the slab.
func (b *builder) column(c ColRef) *sql.ColumnRef {
	r := &b.take(1)[0]
	*r = c
	return (*sql.ColumnRef)(r)
}

// scope tracks the columns visible at the current query level, plus the
// enclosing scope for correlated subqueries.
type scope struct {
	cols  []ColRef
	outer *scope
}

func (s *scope) resolve(table, column string) (ColRef, bool, error) {
	for sc := s; sc != nil; sc = sc.outer {
		var match ColRef
		matches := 0
		for _, c := range sc.cols {
			if c.Column == column && (table == "" || c.Table == table) {
				match = c
				matches++
			}
		}
		if matches == 1 {
			return match, true, nil
		}
		if matches > 1 {
			return ColRef{}, false, fmt.Errorf("plan: ambiguous column %s", ColRef{Table: table, Column: column})
		}
	}
	return ColRef{}, false, nil
}

func (b *builder) buildSelect(stmt *sql.SelectStmt, outer *scope) (Node, error) {
	if stmt.SetOp != "" {
		l, err := b.buildSelect(stmt.SetLeft, outer)
		if err != nil {
			return nil, err
		}
		r, err := b.buildSelect(stmt.SetRight, outer)
		if err != nil {
			return nil, err
		}
		if len(l.OutCols()) != len(r.OutCols()) {
			return nil, fmt.Errorf("plan: UNION arms have %d vs %d columns", len(l.OutCols()), len(r.OutCols()))
		}
		var n Node = &Union{All: stmt.SetOp == "UNION ALL", L: l, R: r}
		return b.finishOrderLimit(n, stmt, outer)
	}

	var root Node
	if stmt.From != nil {
		from, err := b.buildFrom(stmt.From, outer)
		if err != nil {
			return nil, err
		}
		root = from
	} else {
		return nil, fmt.Errorf("plan: SELECT without FROM is not supported")
	}
	// Sel and InSub output their input's columns, so one scope serves the
	// WHERE clause and the clauses over it.
	sc := &scope{cols: root.OutCols(), outer: outer}

	// WHERE: stack one operator per conjunct, in source order.
	var conjBuf [8]sql.Expr
	for _, conj := range sql.AppendConjuncts(conjBuf[:0], stmt.Where) {
		node, err := b.buildFilter(root, conj, sc)
		if err != nil {
			return nil, err
		}
		root = node
	}

	hasAgg := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range stmt.Items {
		if it.Expr != nil && sql.IsAggregate(it.Expr) {
			hasAgg = true
		}
	}

	if hasAgg {
		n, err := b.buildAgg(root, stmt, sc)
		if err != nil {
			return nil, err
		}
		root = n
	} else if !(len(stmt.Items) == 1 && stmt.Items[0].Star && stmt.Items[0].StarTable == "") {
		items, err := b.buildProjItems(stmt.Items, sc)
		if err != nil {
			return nil, err
		}
		root = &Proj{Items: items, In: root}
	}

	if stmt.Distinct {
		root = &Dedup{In: root}
	}
	return b.finishOrderLimit(root, stmt, outer)
}

// finishOrderLimit adds the ORDER BY and LIMIT of stmt over root, whose
// columns the keys resolve against, before outer's.
func (b *builder) finishOrderLimit(root Node, stmt *sql.SelectStmt, outer *scope) (Node, error) {
	if len(stmt.OrderBy) > 0 {
		sc := &scope{cols: root.OutCols(), outer: outer}
		keys := make([]SortKey, 0, len(stmt.OrderBy))
		for _, o := range stmt.OrderBy {
			cr, ok := o.Expr.(*sql.ColumnRef)
			if !ok {
				return nil, fmt.Errorf("plan: ORDER BY supports only column keys, got %s", sql.FormatExpr(o.Expr))
			}
			col, found, err := sc.resolve(cr.Table, cr.Column)
			if err != nil {
				return nil, err
			}
			if !found {
				// ORDER BY may name a projection alias.
				col = ColRef{Table: cr.Table, Column: cr.Column}
			}
			keys = append(keys, SortKey{Col: col, Desc: o.Desc})
		}
		// ORDER BY may reference columns the projection discards; in that
		// case the sort happens below the projection (standard SQL).
		if proj, isProj := root.(*Proj); isProj && danglingKey(keys, root.OutCols()) >= 0 &&
			danglingKey(keys, proj.In.OutCols()) < 0 {
			root = &Proj{Items: proj.Items, In: &Sort{Keys: keys, In: proj.In}}
		} else {
			root = &Sort{Keys: keys, In: root}
		}
	}
	if stmt.Limit != nil {
		root = &Limit{N: *stmt.Limit, In: root}
	}
	return root, nil
}

func (b *builder) buildFrom(t sql.TableExpr, outer *scope) (Node, error) {
	switch x := t.(type) {
	case *sql.TableName:
		def, err := tableDef(b.schema, x.Name)
		if err != nil {
			return nil, err
		}
		return newScan(def, x.Name, x.Binding(), b.take(len(def.Columns))), nil
	case *sql.JoinExpr:
		l, err := b.buildFrom(x.Left, outer)
		if err != nil {
			return nil, err
		}
		r, err := b.buildFrom(x.Rite, outer)
		if err != nil {
			return nil, err
		}
		join := &Join{JoinKind: x.Kind, L: l, R: r}
		if x.On != nil {
			sc := &scope{cols: join.OutCols(), outer: outer}
			on, err := b.resolveExpr(x.On, sc)
			if err != nil {
				return nil, err
			}
			join.On = on
		}
		return join, nil
	case *sql.SubqueryTable:
		inner, err := b.buildSelect(x.Select, outer)
		if err != nil {
			return nil, err
		}
		if x.Alias == "" {
			return nil, fmt.Errorf("plan: derived table requires an alias")
		}
		return &Derived{Binding: x.Alias, In: inner}, nil
	}
	return nil, fmt.Errorf("plan: unsupported FROM item %T", t)
}

// buildFilter lowers one WHERE conjunct over in.
func (b *builder) buildFilter(in Node, conj sql.Expr, sc *scope) (Node, error) {
	if ins, ok := conj.(*sql.InSubquery); ok && !ins.Negated {
		cols, colsOK := b.inSubLeftCols(ins.E, sc)
		if colsOK && !b.correlated(ins.Select, sc) {
			sub, err := b.buildSelect(ins.Select, nil)
			if err != nil {
				return nil, err
			}
			if len(sub.OutCols()) != len(cols) {
				return nil, fmt.Errorf("plan: IN subquery selects %d columns for %d-column comparison", len(sub.OutCols()), len(cols))
			}
			return &InSub{Cols: cols, In: in, Sub: sub}, nil
		}
	}
	pred, err := b.resolveExpr(conj, sc)
	if err != nil {
		return nil, err
	}
	return &Sel{Pred: pred, In: in}, nil
}

func (b *builder) inSubLeftCols(e sql.Expr, sc *scope) ([]ColRef, bool) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		col, ok, err := sc.resolve(x.Table, x.Column)
		if err != nil || !ok {
			return nil, false
		}
		return []ColRef{col}, true
	case *sql.TupleExpr:
		var cols []ColRef
		for _, it := range x.Items {
			cr, ok := it.(*sql.ColumnRef)
			if !ok {
				return nil, false
			}
			col, found, err := sc.resolve(cr.Table, cr.Column)
			if err != nil || !found {
				return nil, false
			}
			cols = append(cols, col)
		}
		return cols, len(cols) > 0
	}
	return nil, false
}

// correlated reports whether the subquery reads a column of sc: one of its
// free column references (sql.FreeColumns — any clause, any nesting depth,
// unqualified names resolved against its own tables first) resolves there.
func (b *builder) correlated(sub *sql.SelectStmt, sc *scope) bool {
	found := false
	sql.FreeColumns(sub, b.schema, func(c *sql.ColumnRef) {
		if _, ok, _ := sc.resolve(c.Table, c.Column); ok {
			found = true
		}
	})
	return found
}

func (b *builder) buildProjItems(items []sql.SelectItem, sc *scope) ([]ProjItem, error) {
	out := make([]ProjItem, 0, len(items))
	for _, it := range items {
		if it.Star {
			for _, c := range sc.cols {
				if it.StarTable != "" && c.Table != it.StarTable {
					continue
				}
				out = append(out, ProjItem{Expr: b.column(c)})
			}
			continue
		}
		e, err := b.resolveExpr(it.Expr, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, ProjItem{Expr: e, Alias: it.Alias})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: empty projection")
	}
	return out, nil
}

func (b *builder) buildAgg(in Node, stmt *sql.SelectStmt, sc *scope) (Node, error) {
	agg := &Agg{In: in}
	for _, g := range stmt.GroupBy {
		cr, ok := g.(*sql.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("plan: GROUP BY supports only columns, got %s", sql.FormatExpr(g))
		}
		col, found, err := sc.resolve(cr.Table, cr.Column)
		if err != nil {
			return nil, err
		}
		if !found {
			return nil, fmt.Errorf("plan: unknown GROUP BY column %s", cr.Column)
		}
		agg.GroupBy = append(agg.GroupBy, col)
	}
	for _, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("plan: SELECT * with GROUP BY is not supported")
		}
		switch e := it.Expr.(type) {
		case *sql.FuncCall:
			if !sql.AggregateFuncs[e.Name] {
				return nil, fmt.Errorf("plan: non-aggregate function %s in aggregate query", e.Name)
			}
			item := AggItem{Func: e.Name, Star: e.Star, Distinct: e.Distinct, Alias: it.Alias}
			if !e.Star {
				if len(e.Args) != 1 {
					return nil, fmt.Errorf("plan: aggregate %s needs one argument", e.Name)
				}
				arg, err := b.resolveExpr(e.Args[0], sc)
				if err != nil {
					return nil, err
				}
				item.Arg = arg
			}
			agg.Items = append(agg.Items, item)
		case *sql.ColumnRef:
			col, found, err := sc.resolve(e.Table, e.Column)
			if err != nil {
				return nil, err
			}
			if !found {
				return nil, fmt.Errorf("plan: unknown column %s", e.Column)
			}
			inGroup := false
			for _, g := range agg.GroupBy {
				if g == col {
					inGroup = true
				}
			}
			if !inGroup {
				return nil, fmt.Errorf("plan: column %s not in GROUP BY", col)
			}
		default:
			return nil, fmt.Errorf("plan: unsupported aggregate select item %s", sql.FormatExpr(it.Expr))
		}
	}
	if stmt.Having != nil {
		h, err := b.resolveExpr(stmt.Having, sc)
		if err != nil {
			return nil, err
		}
		agg.Having = h
	}
	return agg, nil
}

// resolveExpr rewrites column references with their resolved binding.
// Subqueries left inside predicates (negated or correlated ones that did not
// become InSub operators) are kept as they are — the engine evaluates them
// with the current row as the outer context — and so is the tested expression
// of a kept IN (SELECT …).
func (b *builder) resolveExpr(e sql.Expr, sc *scope) (sql.Expr, error) {
	var err error
	r := exprResolver{b: b, sc: sc, err: &err}
	out := r.resolve(e)
	return out, err
}

// exprResolver is resolveExpr's recursion. err points at a variable of its
// own rather than being a field next to sc: returning a field of the struct
// would count as returning sc, and every scope would move to the heap.
type exprResolver struct {
	b   *builder
	sc  *scope
	err *error // the first column that did not resolve
}

func (r *exprResolver) resolve(e sql.Expr) sql.Expr {
	switch x := e.(type) {
	case *sql.ColumnRef:
		col, found, err := r.sc.resolve(x.Table, x.Column)
		if err == nil && !found {
			err = fmt.Errorf("plan: unknown column %s", ColRef{Table: x.Table, Column: x.Column})
		}
		if err != nil {
			if *r.err == nil {
				*r.err = err
			}
			return e
		}
		return r.b.column(col)
	case *sql.InSubquery:
		return e
	}
	return sql.MapChildren(e, r.resolve)
}
