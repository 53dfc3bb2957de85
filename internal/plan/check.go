package plan

import (
	"fmt"

	"wetune/internal/sql"
)

// Check reports whether p is a well-formed plan. It is the one definition of
// that: the rewrite search checks every candidate with it, the SPES
// concretiser its plans, and the engine every statement it executes. Five
// rules:
//   - every free column reference (sql.FreeColumns) of a projection,
//     predicate, aggregate argument or HAVING resolves against its
//     operator's input, a join condition's against both join inputs, and a
//     HAVING's also against the aggregate's own output;
//   - IN columns, group-by keys and sort keys resolve against the input;
//   - an IN subquery has as many output columns as the IN list;
//   - both arms of a UNION have the same number of columns;
//   - the plan has at most MaxNodes operators, as Size counts them.
//
// A reference resolves when it is one of the columns, or names a column by
// its bare name (resolves). Check reads column lists into scratch past its
// length and returns scratch, grown perhaps, at that length again, so a
// caller that keeps the result checks without allocating on success (but for
// the generated name of an unaliased aggregate, read under a HAVING).
//
// Build and BuildCorrelated do not call it: what they lower passes by
// construction, which the rewrite corpus test pins, and a check per build
// would cost the cold path an allocation for its scratch. The engine's
// correlated subplans are open by design (they read the enclosing row) and
// are not checked either.
func Check(scratch []ColRef, p Node, schema *sql.Schema) ([]ColRef, error) {
	c := checker{cols: scratch, schema: schema}
	err := c.check(p)
	return c.cols[:len(scratch)], err
}

// checker is one Check: the column arena and the operators counted so far.
type checker struct {
	cols   []ColRef
	schema *sql.Schema
	nodes  int
}

// check counts n before it descends, so a plan deeper than MaxNodes stops
// the recursion there, then checks n's inputs and n's own references.
func (c *checker) check(n Node) error {
	if k := n.Kind(); k != KScan && k != KDerived {
		if c.nodes++; c.nodes > MaxNodes {
			return fmt.Errorf("plan: more than the %d operators a plan may have", MaxNodes)
		}
	}
	for i, k := 0, NumChildren(n); i < k; i++ {
		if err := c.check(Child(n, i)); err != nil {
			return err
		}
	}
	start := len(c.cols)
	err := c.checkNode(n)
	c.cols = c.cols[:start]
	return err
}

// checkNode checks n's own column references and arities; check checks its
// inputs.
func (c *checker) checkNode(n Node) error {
	switch x := n.(type) {
	case *Proj:
		in := c.outCols(x.In)
		for _, it := range x.Items {
			if err := danglingExpr("projection", it.Expr, c.schema, in, nil); err != nil {
				return err
			}
		}
	case *Sel:
		return danglingExpr("predicate", x.Pred, c.schema, c.outCols(x.In), nil)
	case *InSub:
		if err := danglingCol("IN", x.Cols, c.outCols(x.In)); err != nil {
			return err
		}
		if k := len(c.outCols(x.Sub)); k != len(x.Cols) {
			return fmt.Errorf("plan: IN subquery has %d columns for %d IN columns", k, len(x.Cols))
		}
	case *Join:
		return danglingExpr("join", x.On, c.schema, c.outCols(x), nil)
	case *Agg:
		in := c.outCols(x.In)
		if err := danglingCol("group-by", x.GroupBy, in); err != nil {
			return err
		}
		for _, it := range x.Items {
			if err := danglingExpr("aggregate", it.Arg, c.schema, in, nil); err != nil {
				return err
			}
		}
		if x.Having != nil {
			return danglingExpr("HAVING", x.Having, c.schema, in, c.outCols(x))
		}
	case *Sort:
		if i := danglingKey(x.Keys, c.outCols(x.In)); i >= 0 {
			return fmt.Errorf("plan: dangling sort column %s", x.Keys[i].Col)
		}
	case *Union:
		if l, r := len(c.outCols(x.L)), len(c.outCols(x.R)); l != r {
			return fmt.Errorf("plan: UNION arms have %d vs %d columns", l, r)
		}
	}
	return nil
}

// outCols appends p's output columns to the arena and returns them.
func (c *checker) outCols(p Node) []ColRef {
	start := len(c.cols)
	c.cols = AppendOutCols(c.cols, p)
	return c.cols[start:len(c.cols):len(c.cols)]
}

// resolves reports whether the reference ref resolves among cols: it is one
// of them, or it has no table and names one of them by column name.
func resolves(cols []ColRef, ref ColRef) bool {
	for _, c := range cols {
		if c == ref || (c.Column == ref.Column && ref.Table == "") {
			return true
		}
	}
	return false
}

// danglingKey returns the index of the first key that does not resolve among
// cols, or -1.
func danglingKey(keys []SortKey, cols []ColRef) int {
	for i, k := range keys {
		if !resolves(cols, k.Col) {
			return i
		}
	}
	return -1
}

// danglingCol returns an error naming the first of refs that does not
// resolve among cols.
func danglingCol(what string, refs, cols []ColRef) error {
	for _, ref := range refs {
		if !resolves(cols, ref) {
			return fmt.Errorf("plan: dangling %s column %s", what, ref)
		}
	}
	return nil
}

// danglingExpr returns an error naming the first free column reference of e
// that resolves in neither column list.
func danglingExpr(what string, e sql.Expr, schema *sql.Schema, cols, more []ColRef) (err error) {
	sql.FreeColumns(e, schema, func(cr *sql.ColumnRef) {
		ref := ColRef{Table: cr.Table, Column: cr.Column}
		if err == nil && !resolves(cols, ref) && !resolves(more, ref) {
			err = fmt.Errorf("plan: dangling %s column %s", what, ref)
		}
	})
	return err
}
