package sql

import "slices"

// This file is the one definition of what an expression is made of.
// MapChildren holds the only structural switch over the expression kinds;
// WalkExprs, CloneExpr and the free-column pair are written on top of it, and
// so is every traversal outside this package. The printer and the engine's
// evaluator give each kind a meaning and keep their own switches.

// MapChildren applies fn to the child expressions of e in source order and
// returns e itself when fn returned each of them unchanged, otherwise a copy
// of e holding the results. An absent ELSE is skipped. The statement embedded
// in an InSubquery, ExistsExpr or ScalarSubquery is not a child — it has a
// scope of its own, see MapFreeColumns — but the tested expression of an
// InSubquery is.
func MapChildren(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case *BinaryExpr:
		if l, r := fn(x.L), fn(x.R); l != x.L || r != x.R {
			return &BinaryExpr{Op: x.Op, L: l, R: r}
		}
	case *UnaryExpr:
		if in := fn(x.E); in != x.E {
			return &UnaryExpr{Op: x.Op, E: in}
		}
	case *IsNullExpr:
		if in := fn(x.E); in != x.E {
			return &IsNullExpr{E: in, Negated: x.Negated}
		}
	case *InListExpr:
		in := fn(x.E)
		if list, changed := mapList(x.List, fn); changed || in != x.E {
			return &InListExpr{E: in, List: list, Negated: x.Negated}
		}
	case *InSubquery:
		if in := fn(x.E); in != x.E {
			return &InSubquery{E: in, Select: x.Select, Negated: x.Negated}
		}
	case *TupleExpr:
		if items, changed := mapList(x.Items, fn); changed {
			return &TupleExpr{Items: items}
		}
	case *FuncCall:
		if args, changed := mapList(x.Args, fn); changed {
			return &FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct, Star: x.Star}
		}
	case *CaseExpr:
		whens, els, changed := x.Whens, x.Else, false
		for i, w := range x.Whens {
			if cond, then := fn(w.Cond), fn(w.Then); cond != w.Cond || then != w.Then {
				if !changed {
					whens, changed = slices.Clone(x.Whens), true
				}
				whens[i] = CaseWhen{Cond: cond, Then: then}
			}
		}
		if x.Else != nil {
			els = fn(x.Else)
		}
		if changed || els != x.Else {
			return &CaseExpr{Whens: whens, Else: els}
		}
	}
	// ColumnRef, Literal, Param, ExistsExpr and ScalarSubquery have no children.
	return e
}

// mapList is MapChildren for a slice of expressions: list itself when fn
// changed none of them.
func mapList(list []Expr, fn func(Expr) Expr) ([]Expr, bool) {
	var out []Expr
	for i, it := range list {
		m := fn(it)
		if m != it && out == nil {
			out = append(make([]Expr, 0, len(list)), list[:i]...)
		}
		if out != nil {
			out = append(out, m)
		}
	}
	if out == nil {
		return list, false
	}
	return out, true
}

// WalkExprs invokes fn on e and every sub-expression (not descending into
// subquery SELECTs). fn returning false prunes the walk below that node.
func WalkExprs(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	MapChildren(e, func(c Expr) Expr {
		WalkExprs(c, fn)
		return c
	})
}

// CloneExpr returns a deep copy of an expression tree: every node on a path
// to a column reference, literal or parameter is new, so mutating the clone —
// a literal's value, say — cannot affect the original. Embedded subquery
// statements are shared, not copied: plans represent subqueries they rewrite
// as plan nodes, and a statement kept inside a predicate is only ever replaced
// copy-on-write (MapFreeColumns).
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *ColumnRef:
		cp := *x
		return &cp
	case *Literal:
		cp := *x
		return &cp
	case *Param:
		cp := *x
		return &cp
	}
	return MapChildren(e, CloneExpr)
}

// FreeColumns calls fn, in source order, for each free column reference of n,
// an expression or an embedded statement: the references MapFreeColumns would
// offer for rewriting.
func FreeColumns(n Node, schema *Schema, fn func(*ColumnRef)) {
	m := freeMapper{schema: schema, fn: func(c *ColumnRef) *ColumnRef { fn(c); return c }}
	switch x := n.(type) {
	case *SelectStmt:
		m.stmt(x, nil)
	case Expr:
		m.expr(x, nil)
	}
}

// MapFreeColumns returns e with fn applied to each of its free column
// references — the columns a row of the enclosing scope must supply for e to
// be evaluated, which is the attribute list a of the paper's Sel_{p,a}: e's
// own ColumnRefs at any depth (CASE arms and the tested expression of IN
// (SELECT …) included) plus the correlated references of the statements
// embedded in InSubquery, ExistsExpr and ScalarSubquery nodes, at any nesting.
// Inside an embedded statement a reference is correlated when no FROM clause
// between it and e supplies it, innermost first as the engine resolves it: a
// qualified name when none of those clauses introduces the qualifier, an
// unqualified one when none of their tables has such a column in schema. A
// derived table sees the clauses outside its own FROM only; an unqualified
// ORDER BY key that names an output column is the statement's own. With a nil
// schema, or a table schema does not know, an unqualified name inside an
// embedded statement counts as the statement's own.
//
// Like MapChildren it is copy-on-write, embedded statements included: e comes
// back as it is when fn changed nothing, and a statement that some other
// expression still points to is never modified.
func MapFreeColumns(e Expr, schema *Schema, fn func(*ColumnRef) *ColumnRef) Expr {
	m := freeMapper{schema: schema, fn: fn}
	return m.expr(e, nil)
}

type freeMapper struct {
	schema *Schema
	fn     func(*ColumnRef) *ColumnRef
}

// scope is the chain of embedded statements around a node, innermost first;
// nil in the expression's own scope. It lives on the mapper's call stack.
type scope struct {
	stmt  *SelectStmt
	outer *scope
}

func (m *freeMapper) expr(e Expr, sc *scope) Expr {
	switch x := e.(type) {
	case *ColumnRef:
		for s := sc; s != nil; s = s.outer {
			if supplies(firstArm(s.stmt).From, m.schema, x.Table, x.Column) {
				return e
			}
		}
		return m.fn(x)
	case *ExistsExpr:
		if sel := m.stmt(x.Select, sc); sel != x.Select {
			return &ExistsExpr{Select: sel, Negated: x.Negated}
		}
		return e
	case *ScalarSubquery:
		if sel := m.stmt(x.Select, sc); sel != x.Select {
			return &ScalarSubquery{Select: sel}
		}
		return e
	}
	out := MapChildren(e, func(c Expr) Expr { return m.expr(c, sc) })
	if in, ok := out.(*InSubquery); ok {
		if sel := m.stmt(in.Select, sc); sel != in.Select {
			return &InSubquery{E: in.E, Select: sel, Negated: in.Negated}
		}
	}
	return out
}

// stmt maps the free references of an embedded statement, clause by clause,
// and returns s itself when none changed.
func (m *freeMapper) stmt(s *SelectStmt, outer *scope) *SelectStmt {
	out, changed := *s, false
	if s.SetOp != "" { // each arm is a scope of its own, and only ORDER BY is left below
		out.SetLeft, out.SetRight = m.stmt(s.SetLeft, outer), m.stmt(s.SetRight, outer)
		changed = out.SetLeft != s.SetLeft || out.SetRight != s.SetRight
	}
	sc := &scope{stmt: s, outer: outer}
	expr := func(e Expr) Expr { return m.expr(e, sc) }
	for i, it := range s.Items {
		if e := expr(it.Expr); e != it.Expr {
			if &out.Items[0] == &s.Items[0] {
				out.Items = slices.Clone(s.Items)
			}
			out.Items[i].Expr, changed = e, true
		}
	}
	var groupByChanged bool
	out.From, out.Where = m.from(s.From, sc), expr(s.Where)
	out.GroupBy, groupByChanged = mapList(s.GroupBy, expr)
	out.Having = expr(s.Having)
	changed = changed || groupByChanged || out.From != s.From || out.Where != s.Where || out.Having != s.Having
	for i, o := range s.OrderBy {
		if c, ok := o.Expr.(*ColumnRef); ok && c.Table == "" && outputs(s, m.schema, c.Column) {
			continue
		}
		if e := expr(o.Expr); e != o.Expr {
			if &out.OrderBy[0] == &s.OrderBy[0] {
				out.OrderBy = slices.Clone(s.OrderBy)
			}
			out.OrderBy[i].Expr, changed = e, true
		}
	}
	if !changed {
		return s
	}
	cp := out // out itself must not escape: it would be heap-allocated on every call
	return &cp
}

// from maps the ON conditions and derived tables of the FROM clause of
// sc.stmt. A derived table sees the scopes outside that statement only.
func (m *freeMapper) from(t TableExpr, sc *scope) TableExpr {
	switch x := t.(type) {
	case *JoinExpr:
		if l, r, on := m.from(x.Left, sc), m.from(x.Rite, sc), m.expr(x.On, sc); l != x.Left || r != x.Rite || on != x.On {
			return &JoinExpr{Kind: x.Kind, Left: l, Rite: r, On: on}
		}
	case *SubqueryTable:
		if sel := m.stmt(x.Select, sc.outer); sel != x.Select {
			return &SubqueryTable{Select: sel, Alias: x.Alias}
		}
	}
	return t
}

// firstArm returns the statement whose FROM clause and select list name s's
// columns: s itself, or the leftmost arm of a set operation.
func firstArm(s *SelectStmt) *SelectStmt {
	for s.SetOp != "" {
		s = s.SetLeft
	}
	return s
}

// supplies reports whether the FROM item t resolves table.column: a qualified
// name by its binding alone (the binding shadows an outer one whatever its
// columns), an unqualified one by the columns schema lists for the table.
func supplies(t TableExpr, schema *Schema, table, column string) bool {
	if table == "" && schema == nil {
		return true
	}
	switch x := t.(type) {
	case *TableName:
		if table != "" {
			return x.Binding() == table
		}
		def, known := schema.Table(x.Name)
		return !known || def.ColumnIndex(column) >= 0
	case *JoinExpr:
		return supplies(x.Left, schema, table, column) || supplies(x.Rite, schema, table, column)
	case *SubqueryTable:
		if table != "" {
			return x.Alias == table
		}
		return outputs(x.Select, schema, column)
	}
	return false
}

// outputs reports whether s has an output column of that name. A star item
// counts for every column of the FROM clause, t.* included, which can only
// claim too much for the statement.
func outputs(s *SelectStmt, schema *Schema, column string) bool {
	s = firstArm(s)
	for _, it := range s.Items {
		name := it.Alias
		if c, ok := it.Expr.(*ColumnRef); ok && name == "" {
			name = c.Column
		}
		if name == column || it.Star && supplies(s.From, schema, "", column) {
			return true
		}
	}
	return false
}
