package plan

import (
	"slices"
	"strconv"
	"strings"

	"wetune/internal/sql"
)

// This file derives integrity-constraint facts about plan outputs. The
// rewriter uses these to decide whether a rule's Unique / NotNull / RefAttrs
// constraints (§4.2) hold for a concrete match.

// Origin traces an output column of n back to its originating base-table
// column. ok is false when the column is computed (aggregates, expressions)
// or ambiguous (UNION).
func Origin(n Node, c ColRef) (table, column string, ok bool) {
	switch x := n.(type) {
	case *Scan:
		if c.Table == x.Binding {
			return x.Table, c.Column, true
		}
		return "", "", false
	case *Proj:
		for i, it := range x.Items {
			if isProjCol(it, i, c) {
				if cr, isCol := it.Expr.(*sql.ColumnRef); isCol {
					return Origin(x.In, ColRef{Table: cr.Table, Column: cr.Column})
				}
				return "", "", false
			}
		}
		return "", "", false
	case *Sel:
		return Origin(x.In, c)
	case *InSub:
		return Origin(x.In, c)
	case *Dedup:
		return Origin(x.In, c)
	case *Sort:
		return Origin(x.In, c)
	case *Limit:
		return Origin(x.In, c)
	case *Join:
		if t, col, found := Origin(x.L, c); found {
			return t, col, true
		}
		return Origin(x.R, c)
	case *Derived:
		if c.Table != x.Binding {
			return "", "", false
		}
		var buf [16]ColRef
		for _, inner := range AppendOutCols(buf[:0], x.In) {
			if inner.Column == c.Column {
				return Origin(x.In, inner)
			}
		}
		return "", "", false
	case *Agg:
		for _, g := range x.GroupBy {
			if g == c {
				return Origin(x.In, c)
			}
		}
		return "", "", false
	}
	return "", "", false
}

// isProjCol reports whether c is the output column of the i-th item of a
// projection (projCol), without rendering a computed item's name.
func isProjCol(it ProjItem, i int, c ColRef) bool {
	if _, isCol := it.Expr.(*sql.ColumnRef); isCol || it.Alias != "" {
		return projCol(it, i) == c
	}
	return c.Table == "" && strings.HasPrefix(c.Column, "expr") && c.Column[len("expr"):] == strconv.Itoa(i)
}

// mapThrough appends to dst the columns of n's input that cols of node n
// correspond to, when possible (Proj item lookup, Derived unwrapping), and
// returns what it appended. Pass-through operators return cols itself.
func mapThrough(dst []ColRef, n Node, cols []ColRef) ([]ColRef, bool) {
	start := len(dst)
	switch x := n.(type) {
	case *Proj:
		for _, c := range cols {
			found := false
			for j, it := range x.Items {
				if isProjCol(it, j, c) {
					cr, isCol := it.Expr.(*sql.ColumnRef)
					if !isCol {
						return nil, false
					}
					dst = append(dst, ColRef{Table: cr.Table, Column: cr.Column})
					found = true
					break
				}
			}
			if !found {
				return nil, false
			}
		}
		return dst[start:], true
	case *Derived:
		var buf [16]ColRef
		inner := AppendOutCols(buf[:0], x.In)
		for _, c := range cols {
			if c.Table != x.Binding {
				return nil, false
			}
			found := false
			for _, o := range inner {
				if o.Column == c.Column {
					dst = append(dst, o)
					found = true
					break
				}
			}
			if !found {
				return nil, false
			}
		}
		return dst[start:], true
	}
	return cols, true
}

// containsCols reports whether every one of needles is in haystack.
func containsCols(haystack, needles []ColRef) bool {
	for _, c := range needles {
		if !slices.Contains(haystack, c) {
			return false
		}
	}
	return true
}

// UniqueOn reports whether the output of n is duplicate-free when restricted
// to cols (i.e. cols form a key of the output). Conservative: false means
// "cannot prove".
func UniqueOn(n Node, cols []ColRef, schema *sql.Schema) bool {
	if len(cols) == 0 {
		return false
	}
	switch x := n.(type) {
	case *Scan:
		def, ok := schema.Table(x.Table)
		if !ok {
			return false
		}
		var buf [8]string
		names := buf[:0]
		for _, c := range cols {
			if c.Table != x.Binding {
				return false
			}
			names = append(names, c.Column)
		}
		return def.IsUnique(names)
	case *Proj, *Derived:
		var buf [8]ColRef
		mapped, ok := mapThrough(buf[:0], x, cols)
		return ok && UniqueOn(Child(x, 0), mapped, schema)
	case *Sel:
		return UniqueOn(x.In, cols, schema)
	case *InSub:
		return UniqueOn(x.In, cols, schema)
	case *Sort:
		return UniqueOn(x.In, cols, schema)
	case *Limit:
		return UniqueOn(x.In, cols, schema)
	case *Dedup:
		// Dedup makes the full output row unique.
		var buf [16]ColRef
		if out := AppendOutCols(buf[:0], x); len(cols) == len(out) && containsCols(cols, out) {
			return true
		}
		return UniqueOn(x.In, cols, schema)
	case *Agg:
		// The group-by columns key the output, so any superset of them does.
		return len(x.GroupBy) > 0 && containsCols(cols, x.GroupBy)
	case *Join:
		// All cols from one side, that side unique on them, and the other
		// side contributes at most one match per row (its equi-join columns
		// are unique). Outer-join padding NULLs the side opposite the
		// preserved one, so cols must come from the preserved side: a RIGHT
		// JOIN emits one NULL-padded left tuple per unmatched right row,
		// duplicating NULLs in left-side columns (and symmetrically for LEFT).
		var ebuf [16]ColRef
		equi, ok := x.AppendEquiCols(ebuf[:0])
		if !ok {
			return false
		}
		lc, rc := equi[:len(equi)/2], equi[len(equi)/2:]
		var lbuf [16]ColRef
		lcols := AppendOutCols(lbuf[:0], x.L)
		allLeft, allRight := true, true
		for _, c := range cols {
			if slices.Contains(lcols, c) {
				allRight = false
			} else {
				allLeft = false
			}
		}
		if allLeft && x.JoinKind != sql.RightJoin &&
			UniqueOn(x.L, cols, schema) && UniqueOn(x.R, rc, schema) {
			return true
		}
		if allRight && x.JoinKind != sql.LeftJoin &&
			UniqueOn(x.R, cols, schema) && UniqueOn(x.L, lc, schema) {
			return true
		}
		return false
	}
	return false
}

// NotNullOn reports whether every output row of n has non-NULL values on all
// of cols. Conservative.
func NotNullOn(n Node, cols []ColRef, schema *sql.Schema) bool {
	if len(cols) == 0 {
		return false
	}
	switch x := n.(type) {
	case *Scan:
		def, ok := schema.Table(x.Table)
		if !ok {
			return false
		}
		var buf [8]string
		names := buf[:0]
		for _, c := range cols {
			if c.Table != x.Binding {
				return false
			}
			names = append(names, c.Column)
		}
		return def.IsNotNull(names)
	case *Proj, *Derived:
		var buf [8]ColRef
		mapped, ok := mapThrough(buf[:0], x, cols)
		return ok && NotNullOn(Child(x, 0), mapped, schema)
	case *Sel:
		if NotNullOn(x.In, cols, schema) {
			return true
		}
		// An equality or IS NOT NULL filter implies non-NULL output.
		var ibuf [8]ColRef
		implied := ibuf[:0]
		imply := func(e sql.Expr) {
			if cr, ok := e.(*sql.ColumnRef); ok {
				implied = append(implied, ColRef{Table: cr.Table, Column: cr.Column})
			}
		}
		var conjBuf [8]sql.Expr
		for _, conj := range sql.AppendConjuncts(conjBuf[:0], x.Pred) {
			if e, ok := conj.(*sql.BinaryExpr); ok && (e.Op == "=" || e.Op == "<" || e.Op == "<=" || e.Op == ">" || e.Op == ">=") {
				imply(e.L)
				imply(e.R)
			}
			if e, ok := conj.(*sql.IsNullExpr); ok && e.Negated {
				imply(e.E)
			}
		}
		var rbuf [8]ColRef
		rest := rbuf[:0]
		for _, c := range cols {
			if !slices.Contains(implied, c) {
				rest = append(rest, c)
			}
		}
		return len(rest) == 0 || NotNullOn(x.In, rest, schema)
	case *InSub:
		if NotNullOn(x.In, cols, schema) {
			return true
		}
		// The IN-selection columns themselves are non-NULL in the output.
		var rbuf [8]ColRef
		rest := rbuf[:0]
		for _, c := range cols {
			if !slices.Contains(x.Cols, c) {
				rest = append(rest, c)
			}
		}
		return len(rest) == 0 || NotNullOn(x.In, rest, schema)
	case *Dedup:
		return NotNullOn(x.In, cols, schema)
	case *Sort:
		return NotNullOn(x.In, cols, schema)
	case *Limit:
		return NotNullOn(x.In, cols, schema)
	case *Agg:
		return containsCols(x.GroupBy, cols) && NotNullOn(x.In, cols, schema)
	case *Join:
		var buf [16]ColRef
		lout := AppendOutCols(buf[:0], x.L)
		var lbuf, rbuf [8]ColRef
		lcols, rcols := lbuf[:0], rbuf[:0]
		for _, c := range cols {
			if slices.Contains(lout, c) {
				lcols = append(lcols, c)
			} else {
				rcols = append(rcols, c)
			}
		}
		// Outer-join padding introduces NULLs on the padded side.
		if len(rcols) > 0 && x.JoinKind == sql.LeftJoin {
			return false
		}
		if len(lcols) > 0 && x.JoinKind == sql.RightJoin {
			return false
		}
		if len(lcols) > 0 && !NotNullOn(x.L, lcols, schema) {
			return false
		}
		if len(rcols) > 0 && !NotNullOn(x.R, rcols, schema) {
			return false
		}
		return true
	}
	return false
}

// unfiltered reports whether n exposes all rows of a single base table
// (possibly projected), i.e. no Sel/InSub/Join/Limit restricts it. Required
// for the right side of a RefAttrs containment.
func unfiltered(n Node) (table string, ok bool) {
	switch x := n.(type) {
	case *Scan:
		return x.Table, true
	case *Proj:
		return unfiltered(x.In)
	case *Dedup:
		return unfiltered(x.In)
	case *Sort:
		return unfiltered(x.In)
	case *Derived:
		return unfiltered(x.In)
	}
	return "", false
}

// RefHolds reports whether every (non-NULL) value of src on srcCols also
// appears in dst on dstCols — the RefAttrs(rel1, attrs1, rel2, attrs2)
// constraint. It holds when (a) a declared foreign key links the originating
// base columns and dst exposes all rows of the referenced table, or (b) both
// sides originate from the same unrestricted table columns.
func RefHolds(src Node, srcCols []ColRef, dst Node, dstCols []ColRef, schema *sql.Schema) bool {
	if len(srcCols) == 0 || len(srcCols) != len(dstCols) {
		return false
	}
	dstTable, dstOK := unfiltered(dst)
	if !dstOK {
		return false
	}
	var tbuf, sbuf, dbuf [8]string
	srcTables, srcNames, dstNames := tbuf[:0], sbuf[:0], dbuf[:0]
	for _, c := range srcCols {
		t, col, ok := Origin(src, c)
		if !ok {
			return false
		}
		srcTables = append(srcTables, t)
		srcNames = append(srcNames, col)
	}
	for _, c := range dstCols {
		t, col, ok := Origin(dst, c)
		if !ok || t != dstTable {
			return false
		}
		dstNames = append(dstNames, col)
	}
	// All src cols must come from one table for a single FK to cover them.
	for i := 1; i < len(srcTables); i++ {
		if srcTables[i] != srcTables[0] {
			return false
		}
	}
	// Case (b): same table, same columns.
	if srcTables[0] == dstTable {
		same := true
		for i := range srcNames {
			if srcNames[i] != dstNames[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	// Case (a): declared foreign key.
	def, ok := schema.Table(srcTables[0])
	if !ok {
		return false
	}
	return def.References(srcNames, dstTable, dstNames)
}
