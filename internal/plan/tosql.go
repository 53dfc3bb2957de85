package plan

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"wetune/internal/sql"
)

// ToSQLString renders a logical plan as one SQL statement. It appends the text
// straight from the plan into a pooled buffer, so the returned string is its
// only allocation unless the plan needs a derived table the printer names.
//
// Every subtree prints as one SELECT: its root and the chain of single-input
// operators below it (its spine) down to a table, derived table, join or
// union, each adding its clause. Sel and InSub add a WHERE conjunct, Proj or
// Agg the select list (Agg also GROUP BY and HAVING), Dedup DISTINCT, Sort
// ORDER BY keys and Limit LIMIT. An operator whose clause SQL evaluates no
// later than one the SELECT below it already has (a WHERE over a select list,
// a LIMIT over a LIMIT) instead makes that SELECT a derived table
// `(SELECT …) AS qN` and starts a new SELECT over it; see wrapsInput. So does
// a join for an input that is not a table, derived table or join. Of the
// plans Build produces only one ordered by a column its select list drops
// needs such a derived table.
//
// Derived tables are numbered bottom-up: those inside an operator's input
// before the one it makes of the input; for a join, those inside both inputs
// before the ones it makes of them, left first; for InSub, the outer input's
// before the subquery's.
func ToSQLString(n Node) string {
	bp := sqlBufs.Get().(*[]byte)
	b := appendSelect((*bp)[:0], n, 0)
	s := string(b)
	if cap(b) <= maxPooledSQL {
		*bp = b[:0]
		sqlBufs.Put(bp)
	}
	return s
}

// sqlBufs holds ToSQLString's buffers. A stack buffer would not do: the
// printer's functions call each other recursively, and a buffer that travels
// through their results is moved to the heap.
var sqlBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledSQL bounds the buffers kept for reuse; a longer statement's buffer
// is left to the garbage collector.
const maxPooledSQL = 16 << 10

// shape is what the SELECT a subtree prints as holds: the clauses taken, and
// how many derived tables the subtree introduced.
type shape struct {
	compound, where, items, distinct, ordered, limited bool
	wraps                                              int
}

// wrapsInput reports whether the operator n, over an input that prints as a
// SELECT of shape in, makes that SELECT a derived table instead of adding its
// clause to it.
func wrapsInput(n Node, in shape) bool {
	switch n.(type) {
	case *Sel, *InSub, *Proj, *Agg:
		return in.compound || in.items || in.distinct || in.ordered || in.limited
	case *Dedup:
		return in.compound || in.distinct || in.ordered || in.limited
	case *Sort:
		return in.ordered || in.limited
	case *Limit:
		return in.limited
	}
	return false
}

// joinWraps reports whether a join input that prints as a SELECT of shape in
// is a derived table rather than the table, derived table or join below it.
func joinWraps(in shape) bool {
	return in.compound || in.where || in.items || in.distinct || in.ordered || in.limited
}

// link is one node of a spine and the shape of the SELECT it prints as.
type link struct {
	n Node
	s shape
}

// spine appends n and the single-input operators below it, down to the first
// node that is not one, to sp (empty) with their shapes.
func spine(sp []link, n Node) []link {
	for {
		sp = append(sp, link{n: n})
		switch n.(type) {
		case *Sel, *InSub, *Proj, *Agg, *Dedup, *Sort, *Limit:
			n = Child(n, 0)
			continue
		}
		break
	}
	last := len(sp) - 1
	sp[last].s = sourceShape(sp[last].n)
	for k := last - 1; k >= 0; k-- {
		sp[k].s = after(sp[k].n, sp[k+1].s)
	}
	return sp
}

// after returns the shape of the SELECT the single-input operator n prints
// as over an input of shape in.
func after(n Node, in shape) shape {
	s := in
	if wrapsInput(n, in) {
		s = shape{wraps: in.wraps + 1}
	}
	switch x := n.(type) {
	case *Sel:
		s.where = true
	case *InSub:
		s.where = true
		s.wraps += shapeOf(x.Sub).wraps
	case *Proj:
		s.items = s.items || len(x.Items) > 0
	case *Agg:
		s.items = s.items || len(x.GroupBy)+len(x.Items) > 0
	case *Dedup:
		s.distinct = true
	case *Sort:
		s.ordered = s.ordered || len(x.Keys) > 0
	case *Limit:
		s.limited = true
	}
	return s
}

// sourceShape is the shape of the SELECT a table, derived table, join or
// union prints as.
func sourceShape(n Node) shape {
	switch x := n.(type) {
	case *Derived:
		return shape{wraps: shapeOf(x.In).wraps}
	case *Union:
		return shape{compound: true, wraps: shapeOf(x.L).wraps + shapeOf(x.R).wraps}
	case *Join:
		l, r := shapeOf(x.L), shapeOf(x.R)
		s := shape{wraps: l.wraps + r.wraps}
		if joinWraps(l) {
			s.wraps++
		}
		if joinWraps(r) {
			s.wraps++
		}
		return s
	}
	return shape{}
}

// shapeOf is the shape of the SELECT n prints as.
func shapeOf(n Node) shape {
	switch n.(type) {
	case *Sel, *InSub, *Proj, *Agg, *Dedup, *Sort, *Limit:
		return after(n, shapeOf(Child(n, 0)))
	}
	return sourceShape(n)
}

// blockEnd returns the index of the last operator of the SELECT sp[0] prints
// as: the first that wraps its input, or the spine's source.
func blockEnd(sp []link) int {
	j := 0
	for j < len(sp)-1 && !wrapsInput(sp[j].n, sp[j+1].s) {
		j++
	}
	return j
}

// appendSelect appends the SELECT n prints as; base derived tables are
// numbered before n's own.
func appendSelect(dst []byte, n Node, base int) []byte {
	var buf [8]link
	return appendBlock(dst, spine(buf[:0], n), base, nil)
}

// appendBlock appends the SELECT sp[0] prints as, base as for appendSelect.
// as is the derived table the caller makes of it, nil if none.
func appendBlock(dst []byte, sp []link, base int, as *derived) []byte {
	j := blockEnd(sp)
	var below *derived // the derived table sp[j] makes of its input
	if j < len(sp)-1 {
		below = derivedOf(sp[j+1:], base, base+sp[j+1].s.wraps+1)
	}
	// through returns the derived table the expressions of sp[k] read their
	// columns through: only the operator that made it renames into it.
	through := func(k int) *derived {
		if k == j {
			return below
		}
		return nil
	}
	if sp[0].s.compound {
		u := sp[j].n.(*Union)
		dst = appendArm(dst, u.L, base, false)
		if u.All {
			dst = append(dst, " UNION ALL "...)
		} else {
			dst = append(dst, " UNION "...)
		}
		dst = appendArm(dst, u.R, base+shapeOf(u.L).wraps, true)
		return appendOrderLimit(dst, sp, j, below)
	}

	conjuncts, distinct := 0, false
	for k := 0; k <= j; k++ {
		switch sp[k].n.(type) {
		case *Sel, *InSub:
			conjuncts++
		case *Dedup:
			distinct = true
		}
	}
	dst = append(dst, "SELECT "...)
	if distinct {
		dst = append(dst, "DISTINCT "...)
	}
	dst = appendItems(dst, sp[:j+1], below, as)

	dst = append(dst, " FROM "...)
	if below != nil {
		dst = appendDerived(dst, sp[j+1:], base, below)
	} else {
		dst = appendSource(dst, sp[j].n, base)
	}

	if conjuncts > 0 {
		dst = append(dst, " WHERE "...)
	}
	first := true
	for k := j; k >= 0; k-- { // the lowest operator's conjunct first
		switch x := sp[k].n.(type) {
		case *Sel:
			e := through(k).expr(x.Pred)
			switch {
			case conjuncts == 1:
				dst = sql.AppendExpr(dst, e)
			case first:
				dst = sql.AppendOperand(dst, e, "AND", false)
			default:
				dst = append(dst, " AND "...)
				dst = sql.AppendOperand(dst, e, "AND", true)
			}
		case *InSub: // never parenthesized
			if !first {
				dst = append(dst, " AND "...)
			}
			dst = appendColumns(dst, x.Cols, through(k))
			dst = append(dst, " IN ("...)
			subBase := base + sp[k+1].s.wraps
			if k == j && below != nil {
				subBase++
			}
			dst = appendSelect(dst, x.Sub, subBase)
			dst = append(dst, ')')
		default:
			continue
		}
		first = false
	}

	// GROUP BY lists the keys of every Agg, bottom-up; the topmost Agg sets
	// HAVING. (Only one Agg of a SELECT has keys or items: the next one up
	// would wrap it.)
	var having sql.Expr
	first = true
	for k := j; k >= 0; k-- {
		if agg, ok := sp[k].n.(*Agg); ok {
			for _, g := range agg.GroupBy {
				if first {
					dst = append(dst, " GROUP BY "...)
					first = false
				} else {
					dst = append(dst, ", "...)
				}
				dst = appendColumn(dst, through(k).col(g))
			}
			having = through(k).expr(agg.Having)
		}
	}
	if having != nil {
		dst = append(dst, " HAVING "...)
		dst = sql.AppendExpr(dst, having)
	}
	return appendOrderLimit(dst, sp, j, below)
}

// appendItems appends the select list of the SELECT whose operators are
// block: the items of its Proj and Agg operators, bottom-up (one at most has
// any), or a star. below is the derived table its last operator made, if any;
// as is the derived table the caller makes of the SELECT, which aliases the
// columns it renames.
func appendItems(dst []byte, block []link, below, as *derived) []byte {
	i := 0 // the output column
	for k := len(block) - 1; k >= 0; k-- {
		var r *derived
		if k == len(block)-1 {
			r = below
		}
		dst, i = appendOperatorItems(dst, block[k].n, r, as, i)
	}
	if i > 0 {
		return dst
	}
	if as == nil || as.rename == nil {
		return append(dst, '*')
	}
	// A star over repeated names: list the columns to alias them apart.
	for i, c := range as.cols {
		dst = itemSep(dst, i)
		dst = appendColumn(dst, c)
		dst = as.appendAlias(dst, i, "")
	}
	return dst
}

// appendOperatorItems appends the items of n, if it is a Proj or Agg, as
// output columns i on, and returns the next output column.
func appendOperatorItems(dst []byte, n Node, r, as *derived, i int) ([]byte, int) {
	switch x := n.(type) {
	case *Proj:
		for _, it := range x.Items {
			dst = itemSep(dst, i)
			e := r.expr(it.Expr)
			dst = sql.AppendExpr(dst, e)
			name := it.Alias
			if c, ok := it.Expr.(*sql.ColumnRef); ok && name == "" {
				// Keep the plan's name for a column the derived table below renamed.
				if rc, ok := e.(*sql.ColumnRef); ok && rc.Column != c.Column {
					name = c.Column
				}
			}
			dst = as.appendAlias(dst, i, name)
			i++
		}
	case *Agg:
		for _, g := range x.GroupBy {
			dst = itemSep(dst, i)
			c := r.col(g)
			dst = appendColumn(dst, c)
			name := ""
			if c.Column != g.Column {
				name = g.Column
			}
			dst = as.appendAlias(dst, i, name)
			i++
		}
		for _, it := range x.Items {
			dst = itemSep(dst, i)
			dst = sql.AppendIdent(dst, it.Func)
			dst = append(dst, '(')
			switch {
			case it.Star:
				dst = append(dst, '*')
			case it.Arg != nil:
				if it.Distinct {
					dst = append(dst, "DISTINCT "...)
				}
				dst = sql.AppendExpr(dst, r.expr(it.Arg))
			case it.Distinct:
				dst = append(dst, "DISTINCT "...)
			}
			dst = append(dst, ')')
			dst = as.appendAlias(dst, i, it.Alias)
			i++
		}
	}
	return dst, i
}

func itemSep(dst []byte, i int) []byte {
	if i > 0 {
		dst = append(dst, ", "...)
	}
	return dst
}

// appendAlias appends the alias of output column i: the one d gives it, if
// any, else name, if any.
func (d *derived) appendAlias(dst []byte, i int, name string) []byte {
	if d != nil && d.rename != nil && d.rename[i] != "" {
		name = d.rename[i]
	}
	if name == "" {
		return dst
	}
	dst = append(dst, " AS "...)
	return sql.AppendIdent(dst, name)
}

// appendOrderLimit appends the ORDER BY and LIMIT clauses of the SELECT whose
// operators are sp[:j+1]; below is the derived table sp[j] made, if any.
func appendOrderLimit(dst []byte, sp []link, j int, below *derived) []byte {
	first := true
	for k := j; k >= 0; k-- {
		s, ok := sp[k].n.(*Sort)
		if !ok {
			continue
		}
		for _, key := range s.Keys {
			if first {
				dst = append(dst, " ORDER BY "...)
				first = false
			} else {
				dst = append(dst, ", "...)
			}
			if k == j && below != nil {
				dst = appendColumn(dst, below.col(key.Col))
			} else {
				dst = appendColumn(dst, rendered(sp[:j+1], below, key.Col))
			}
			if key.Desc {
				dst = append(dst, " DESC"...)
			} else {
				dst = append(dst, " ASC"...)
			}
		}
	}
	for k := 0; k <= j; k++ {
		if l, ok := sp[k].n.(*Limit); ok {
			dst = append(dst, " LIMIT "...)
			dst = strconv.AppendInt(dst, l.N, 10)
		}
	}
	return dst
}

// rendered returns the column a sort key c of the SELECT with operators block
// names there. Where the select list outputs c it is the item's own column,
// else c through the derived table below, else c itself; an item over
// repeated names (a_2) would otherwise not be found under the plan's name.
func rendered(block []link, below *derived, c ColRef) ColRef {
	for k, l := range block {
		var r *derived
		if k == len(block)-1 {
			r = below
		}
		switch x := l.n.(type) {
		case *Proj:
			for i := len(x.Items) - 1; i >= 0; i-- {
				it := x.Items[i]
				orig, isCol := it.Expr.(*sql.ColumnRef)
				key := ColRef{Column: it.Alias}
				if it.Alias == "" && isCol {
					key = ColRef{Table: orig.Table, Column: orig.Column}
				}
				if key != c || !isCol && it.Alias == "" {
					continue
				}
				if e, ok := r.expr(it.Expr).(*sql.ColumnRef); ok {
					return ColRef{Table: e.Table, Column: e.Column}
				}
				return key
			}
		case *Agg:
			if i := lastIndex(x.GroupBy, c); i >= 0 {
				return r.col(x.GroupBy[i])
			}
		}
	}
	if below != nil {
		if i := lastIndex(below.cols, c); i >= 0 {
			return below.out[i]
		}
	}
	return c
}

func lastIndex(cols []ColRef, c ColRef) int {
	for i := len(cols) - 1; i >= 0; i-- {
		if cols[i] == c {
			return i
		}
	}
	return -1
}

// appendArm appends one arm of a UNION, parenthesized where its own ORDER BY
// or LIMIT would otherwise bind to the whole chain, or, on the right, where
// it is a chain itself (the chain associates to the left).
func appendArm(dst []byte, n Node, base int, right bool) []byte {
	var buf [8]link
	sp := spine(buf[:0], n)
	s := sp[0].s
	paren := s.ordered || s.limited || right && s.compound
	if paren {
		dst = append(dst, '(')
	}
	dst = appendBlock(dst, sp, base, nil)
	if paren {
		dst = append(dst, ')')
	}
	return dst
}

// appendSource appends a table, derived table or join as a FROM item.
func appendSource(dst []byte, n Node, base int) []byte {
	switch x := n.(type) {
	case *Scan:
		dst = sql.AppendIdent(dst, x.Table)
		if x.Binding != x.Table && x.Binding != "" {
			dst = append(dst, " AS "...)
			dst = sql.AppendIdent(dst, x.Binding)
		}
		return dst
	case *Derived:
		dst = append(dst, '(')
		dst = appendSelect(dst, x.In, base)
		dst = append(dst, ')')
		if x.Binding != "" {
			dst = append(dst, " AS "...)
			dst = sql.AppendIdent(dst, x.Binding)
		}
		return dst
	case *Join:
		ld, rd, rBase := joinInputs(x, base)
		dst = appendJoinInput(dst, x.L, base, ld, false)
		dst = append(dst, ' ')
		dst = append(dst, x.JoinKind.String()...)
		dst = append(dst, ' ')
		dst = appendJoinInput(dst, x.R, rBase, rd, true)
		if x.On != nil {
			on := x.On
			if ld != nil {
				on = SubstituteCols(on, nil, x.L.OutCols(), ld.out)
			}
			if rd != nil {
				on = SubstituteCols(on, nil, x.R.OutCols(), rd.out)
			}
			dst = append(dst, " ON "...)
			dst = sql.AppendExpr(dst, on)
		}
		return dst
	}
	panic(fmt.Sprintf("plan: cannot print %T as SQL", n))
}

// joinInputs returns the derived tables a join makes of its inputs (nil for
// an input it joins as it is) and the number its right input's own derived
// tables start after.
func joinInputs(x *Join, base int) (ld, rd *derived, rBase int) {
	l, r := shapeOf(x.L), shapeOf(x.R)
	rBase = base + l.wraps
	no := rBase + r.wraps
	var buf [8]link
	if joinWraps(l) {
		no++
		ld = derivedOf(spine(buf[:0], x.L), base, no)
	}
	if joinWraps(r) {
		no++
		rd = derivedOf(spine(buf[:0], x.R), rBase, no)
	}
	return ld, rd, rBase
}

// appendJoinInput appends a join input: the derived table d when the join
// made one of it, otherwise the FROM item of the SELECT it prints as, in
// parentheses when that is a join on the right.
func appendJoinInput(dst []byte, n Node, base int, d *derived, right bool) []byte {
	var buf [8]link
	sp := spine(buf[:0], n)
	if d != nil {
		return appendDerived(dst, sp, base, d)
	}
	j := blockEnd(sp)
	if j < len(sp)-1 {
		return appendDerived(dst, sp[j+1:], base, derivedOf(sp[j+1:], base, base+sp[j+1].s.wraps+1))
	}
	if _, join := sp[j].n.(*Join); join && right {
		dst = append(dst, '(')
		dst = appendSource(dst, sp[j].n, base)
		return append(dst, ')')
	}
	return appendSource(dst, sp[j].n, base)
}

// appendDerived appends the SELECT sp[0] prints as made into the derived
// table d.
func appendDerived(dst []byte, sp []link, base int, d *derived) []byte {
	dst = append(dst, '(')
	dst = appendBlock(dst, sp, base, d)
	dst = append(dst, ") AS "...)
	return sql.AppendIdent(dst, d.alias)
}

// derived is a SELECT made into the derived table alias. cols are its output
// columns as the operators over it name them, out the same columns as named
// outside it. A name the SELECT outputs more than once gets a numbered alias
// inside (a, a_2, a_3, …), kept in rename; rename is nil when none does.
type derived struct {
	alias  string
	cols   []ColRef
	out    []ColRef
	rename []string
}

// derivedOf describes the derived table number no made of the SELECT sp[0]
// prints as, whose own derived tables number from base. This is the rare path
// that allocates.
func derivedOf(sp []link, base, no int) *derived {
	d := &derived{alias: "q" + strconv.Itoa(no), cols: outCols(sp, base)}
	d.out = make([]ColRef, len(d.cols))
	for i, c := range d.cols {
		name := c.Column
		// A UNION's columns are named by its first arm and stay as they are.
		if k := occurrence(d.cols, i); k > 1 && !sp[0].s.compound {
			if d.rename == nil {
				d.rename = make([]string, len(d.cols))
			}
			name = c.Column + "_" + strconv.Itoa(k)
			d.rename[i] = name
		}
		d.out[i] = ColRef{Table: d.alias, Column: name}
	}
	return d
}

// occurrence returns how many of cols[:i+1] are named cols[i].Column.
func occurrence(cols []ColRef, i int) int {
	k := 0
	for _, c := range cols[:i+1] {
		if c.Column == cols[i].Column {
			k++
		}
	}
	return k
}

// outCols returns the output columns of the SELECT sp[0] prints as, as the
// operators over it name them: an operator's own OutCols where it sets them,
// otherwise those of the SELECT or derived table below it.
func outCols(sp []link, base int) []ColRef {
	switch x := sp[0].n.(type) {
	case *Sel, *InSub, *Dedup, *Sort, *Limit:
		if wrapsInput(x, sp[1].s) {
			return derivedOf(sp[1:], base, base+sp[1].s.wraps+1).out
		}
		return outCols(sp[1:], base)
	case *Join:
		ld, rd, rBase := joinInputs(x, base)
		var buf [8]link
		side := func(n Node, d *derived, base int) []ColRef {
			if d != nil {
				return d.out
			}
			return outCols(spine(buf[:0], n), base)
		}
		return append(slices.Clone(side(x.L, ld, base)), side(x.R, rd, rBase)...)
	}
	return sp[0].n.OutCols()
}

// expr renames the free columns of e that d's SELECT outputs to their names
// outside it; with a nil d it returns e.
func (d *derived) expr(e sql.Expr) sql.Expr {
	if d == nil {
		return e
	}
	return SubstituteCols(e, nil, d.cols, d.out)
}

// col is expr for one column.
func (d *derived) col(c ColRef) ColRef {
	if d != nil {
		if i := slices.Index(d.cols, c); i >= 0 {
			return d.out[i]
		}
	}
	return c
}

// appendColumn appends c as the SQL printer writes a column reference.
func appendColumn(dst []byte, c ColRef) []byte {
	if c.Table != "" {
		dst = sql.AppendIdent(dst, c.Table)
		dst = append(dst, '.')
	}
	return sql.AppendIdent(dst, c.Column)
}

// appendColumns appends the tested columns of an InSub: one column, or a
// parenthesized list.
func appendColumns(dst []byte, cols []ColRef, r *derived) []byte {
	if len(cols) == 1 {
		return appendColumn(dst, r.col(cols[0]))
	}
	dst = append(dst, '(')
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendColumn(dst, r.col(c))
	}
	return append(dst, ')')
}
