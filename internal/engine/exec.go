package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"wetune/internal/plan"
	"wetune/internal/sql"
)

// Execute runs a logical plan and returns its result rows. params supplies
// values for `?` placeholders. A plan that fails plan.Check is an error; the
// correlated subplans the executor builds per outer row are not checked,
// because they read that row.
func (db *DB) Execute(p plan.Node, params []sql.Value) (*Result, error) {
	if _, err := plan.Check(nil, p, db.Schema); err != nil {
		return nil, err
	}
	ex := &executor{db: db, params: params, subCache: map[*sql.SelectStmt]*Result{}}
	return ex.exec(p, nil)
}

// executor carries per-execution state (parameter values, the uncorrelated
// subquery cache, outer-row context for correlated subqueries).
type executor struct {
	db       *DB
	params   []sql.Value
	subCache map[*sql.SelectStmt]*Result
}

// rowEnv resolves column references against the current row and any outer
// rows (for correlated subqueries).
type rowEnv struct {
	cols   []plan.ColRef
	row    Row
	parent *rowEnv
}

func (e *rowEnv) resolve(table, column string) (sql.Value, bool) {
	for env := e; env != nil; env = env.parent {
		for i, c := range env.cols {
			if c.Column != column {
				continue
			}
			if table != "" && c.Table != table {
				continue
			}
			return env.row[i], true
		}
	}
	return sql.Null, false
}

func (ex *executor) exec(p plan.Node, outer *rowEnv) (*Result, error) {
	switch x := p.(type) {
	case *plan.Scan:
		t, ok := ex.db.tables[x.Table]
		if !ok {
			return nil, fmt.Errorf("engine: unknown table %q", x.Table)
		}
		ex.db.Stats.RowsVisited += int64(len(t.Rows))
		return &Result{Cols: x.OutCols(), Rows: t.Rows}, nil

	case *plan.Derived:
		in, err := ex.exec(x.In, outer)
		if err != nil {
			return nil, err
		}
		return &Result{Cols: x.OutCols(), Rows: in.Rows}, nil

	case *plan.Sel:
		// Index fast path: equality on an indexed base-table column.
		if res, ok, err := ex.indexedSel(x, outer); ok || err != nil {
			return res, err
		}
		in, err := ex.exec(x.In, outer)
		if err != nil {
			return nil, err
		}
		out := &Result{Cols: in.Cols}
		for _, row := range in.Rows {
			ex.db.Stats.RowsVisited++
			v, err := ex.evalBool(x.Pred, &rowEnv{cols: in.Cols, row: row, parent: outer})
			if err != nil {
				return nil, err
			}
			if v == sql.True3 {
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil

	case *plan.InSub:
		in, err := ex.exec(x.In, outer)
		if err != nil {
			return nil, err
		}
		sub, err := ex.exec(x.Sub, outer)
		if err != nil {
			return nil, err
		}
		ex.db.Stats.SubqueryExecs++
		set := map[string]bool{}
		for _, row := range sub.Rows {
			if rowHasNull(row) {
				continue
			}
			set[rowKey(row)] = true
		}
		pos := make([]int, len(x.Cols))
		for i, c := range x.Cols {
			pos[i] = colIndex(in.Cols, c)
			if pos[i] < 0 {
				return nil, fmt.Errorf("engine: IN column %s not found", c)
			}
		}
		out := &Result{Cols: in.Cols}
		for _, row := range in.Rows {
			ex.db.Stats.RowsVisited++
			key, null := projKey(row, pos)
			if !null && set[key] {
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil

	case *plan.Join:
		return ex.execJoin(x, outer)

	case *plan.Dedup:
		in, err := ex.exec(x.In, outer)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		out := &Result{Cols: in.Cols}
		for _, row := range in.Rows {
			ex.db.Stats.RowsVisited++
			k := rowKey(row)
			if !seen[k] {
				seen[k] = true
				out.Rows = append(out.Rows, row)
			}
		}
		return out, nil

	case *plan.Proj:
		in, err := ex.exec(x.In, outer)
		if err != nil {
			return nil, err
		}
		out := &Result{Cols: x.OutCols()}
		for _, row := range in.Rows {
			env := &rowEnv{cols: in.Cols, row: row, parent: outer}
			nr := make(Row, len(x.Items))
			for i, it := range x.Items {
				v, err := ex.evalExpr(it.Expr, env)
				if err != nil {
					return nil, err
				}
				nr[i] = v
			}
			out.Rows = append(out.Rows, nr)
		}
		return out, nil

	case *plan.Agg:
		return ex.execAgg(x, outer)

	case *plan.Union:
		l, err := ex.exec(x.L, outer)
		if err != nil {
			return nil, err
		}
		r, err := ex.exec(x.R, outer)
		if err != nil {
			return nil, err
		}
		out := &Result{Cols: l.Cols, Rows: append(append([]Row{}, l.Rows...), r.Rows...)}
		if !x.All {
			seen := map[string]bool{}
			dedup := out.Rows[:0]
			for _, row := range out.Rows {
				k := rowKey(row)
				if !seen[k] {
					seen[k] = true
					dedup = append(dedup, row)
				}
			}
			out.Rows = dedup
		}
		return out, nil

	case *plan.Sort:
		in, err := ex.exec(x.In, outer)
		if err != nil {
			return nil, err
		}
		pos := make([]int, len(x.Keys))
		for i, k := range x.Keys {
			pos[i] = colIndex(in.Cols, k.Col)
			if pos[i] < 0 {
				return nil, fmt.Errorf("engine: sort key %s not found", k.Col)
			}
		}
		rows := append([]Row{}, in.Rows...)
		ex.db.Stats.SortedRows += int64(len(rows))
		sort.SliceStable(rows, func(a, b int) bool {
			for i, p := range pos {
				c := rows[a][p].Compare(rows[b][p])
				if c != 0 {
					if x.Keys[i].Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		return &Result{Cols: in.Cols, Rows: rows}, nil

	case *plan.Limit:
		in, err := ex.exec(x.In, outer)
		if err != nil {
			return nil, err
		}
		n := int(x.N)
		if n > len(in.Rows) {
			n = len(in.Rows)
		}
		return &Result{Cols: in.Cols, Rows: in.Rows[:n]}, nil
	}
	return nil, fmt.Errorf("engine: cannot execute %T", p)
}

// indexedSel serves Sel(Scan) with an equality predicate on an indexed
// column via the hash index.
func (ex *executor) indexedSel(s *plan.Sel, outer *rowEnv) (*Result, bool, error) {
	scan, ok := s.In.(*plan.Scan)
	if !ok {
		return nil, false, nil
	}
	be, ok := s.Pred.(*sql.BinaryExpr)
	if !ok || be.Op != "=" {
		return nil, false, nil
	}
	cr, ok := be.L.(*sql.ColumnRef)
	var valExpr sql.Expr = be.R
	if !ok {
		cr, ok = be.R.(*sql.ColumnRef)
		valExpr = be.L
	}
	if !ok {
		return nil, false, nil
	}
	switch valExpr.(type) {
	case *sql.Literal, *sql.Param:
	default:
		return nil, false, nil
	}
	t := ex.db.tables[scan.Table]
	if t == nil {
		return nil, false, nil
	}
	if _, indexed := t.indexes[cr.Column]; !indexed {
		return nil, false, nil
	}
	v, err := ex.evalExpr(valExpr, outer)
	if err != nil {
		return nil, false, err
	}
	if v.IsNull() {
		return &Result{Cols: scan.OutCols()}, true, nil
	}
	ids, _ := t.lookup([]string{cr.Column}, v.String()+"|")
	ex.db.Stats.IndexLookups++
	out := &Result{Cols: scan.OutCols()}
	for _, ri := range ids {
		ex.db.Stats.RowsVisited++
		out.Rows = append(out.Rows, t.Rows[ri])
	}
	return out, true, nil
}

func (ex *executor) execJoin(j *plan.Join, outer *rowEnv) (*Result, error) {
	l, err := ex.exec(j.L, outer)
	if err != nil {
		return nil, err
	}
	r, err := ex.exec(j.R, outer)
	if err != nil {
		return nil, err
	}
	cols := append(append([]plan.ColRef{}, l.Cols...), r.Cols...)
	out := &Result{Cols: cols}
	nullsFor := func(n int) Row {
		row := make(Row, n)
		for i := range row {
			row[i] = sql.Null
		}
		return row
	}
	lc, rc, equi := j.EquiCols()
	if equi && j.JoinKind != sql.CrossJoin {
		lpos := colIndexes(l.Cols, lc)
		rpos := colIndexes(r.Cols, rc)
		if lpos != nil && rpos != nil {
			// Hash join: build on the right, probe from the left.
			build := map[string][]Row{}
			for _, row := range r.Rows {
				ex.db.Stats.RowsVisited++
				key, null := projKey(row, rpos)
				if null {
					continue
				}
				build[key] = append(build[key], row)
			}
			rightMatched := map[string]bool{}
			for _, lrow := range l.Rows {
				ex.db.Stats.RowsVisited++
				key, null := projKey(lrow, lpos)
				matches := build[key]
				if null {
					matches = nil
				}
				if len(matches) == 0 {
					if j.JoinKind == sql.LeftJoin {
						out.Rows = append(out.Rows, append(append(Row{}, lrow...), nullsFor(len(r.Cols))...))
					}
					continue
				}
				rightMatched[key] = true
				for _, rrow := range matches {
					out.Rows = append(out.Rows, append(append(Row{}, lrow...), rrow...))
				}
			}
			if j.JoinKind == sql.RightJoin {
				for _, rrow := range r.Rows {
					key, null := projKey(rrow, rpos)
					if null || !rightMatched[key] {
						out.Rows = append(out.Rows, append(nullsFor(len(l.Cols)), rrow...))
					}
				}
			}
			return out, nil
		}
	}
	// Nested-loop fallback with the full ON condition.
	rightSeen := make([]bool, len(r.Rows))
	for _, lrow := range l.Rows {
		matched := false
		for ri, rrow := range r.Rows {
			ex.db.Stats.RowsVisited++
			joined := append(append(Row{}, lrow...), rrow...)
			ok := sql.True3
			if j.On != nil {
				ok, err = ex.evalBool(j.On, &rowEnv{cols: cols, row: joined, parent: outer})
				if err != nil {
					return nil, err
				}
			}
			if ok == sql.True3 {
				matched = true
				rightSeen[ri] = true
				out.Rows = append(out.Rows, joined)
			}
		}
		if !matched && j.JoinKind == sql.LeftJoin {
			out.Rows = append(out.Rows, append(append(Row{}, lrow...), nullsFor(len(r.Cols))...))
		}
	}
	if j.JoinKind == sql.RightJoin {
		for ri, rrow := range r.Rows {
			if !rightSeen[ri] {
				out.Rows = append(out.Rows, append(nullsFor(len(l.Cols)), rrow...))
			}
		}
	}
	return out, nil
}

func (ex *executor) execAgg(a *plan.Agg, outer *rowEnv) (*Result, error) {
	in, err := ex.exec(a.In, outer)
	if err != nil {
		return nil, err
	}
	gpos := colIndexes(in.Cols, a.GroupBy)
	if gpos == nil && len(a.GroupBy) > 0 {
		return nil, fmt.Errorf("engine: group-by column missing")
	}
	groups := map[string][]Row{}
	var order []string
	for _, row := range in.Rows {
		ex.db.Stats.RowsVisited++
		key := ""
		if len(gpos) > 0 {
			key, _ = projKey(row, gpos)
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	if len(a.GroupBy) == 0 && len(order) == 0 {
		order = append(order, "")
		groups[""] = nil
	}
	out := &Result{Cols: a.OutCols()}
	for _, key := range order {
		rows := groups[key]
		outRow := make(Row, 0, len(a.GroupBy)+len(a.Items))
		if len(rows) > 0 {
			for _, p := range gpos {
				outRow = append(outRow, rows[0][p])
			}
		} else {
			for range a.GroupBy {
				outRow = append(outRow, sql.Null)
			}
		}
		for _, item := range a.Items {
			v, err := ex.aggValue(item, rows, in.Cols, outer)
			if err != nil {
				return nil, err
			}
			outRow = append(outRow, v)
		}
		if a.Having != nil {
			hv, err := ex.evalHaving(a.Having, a, rows, in.Cols, outer)
			if err != nil {
				return nil, err
			}
			if hv != sql.True3 {
				continue
			}
		}
		out.Rows = append(out.Rows, outRow)
	}
	return out, nil
}

func (ex *executor) aggValue(item plan.AggItem, rows []Row, cols []plan.ColRef, outer *rowEnv) (sql.Value, error) {
	if item.Star && item.Func == "COUNT" {
		return sql.NewInt(int64(len(rows))), nil
	}
	var vals []sql.Value
	seen := map[string]bool{}
	for _, row := range rows {
		v, err := ex.evalExpr(item.Arg, &rowEnv{cols: cols, row: row, parent: outer})
		if err != nil {
			return sql.Null, err
		}
		if v.IsNull() {
			continue
		}
		if item.Distinct {
			k := v.String()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch item.Func {
	case "COUNT":
		return sql.NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return sql.Null, nil
		}
		sum := 0.0
		isInt := true
		for _, v := range vals {
			switch v.Kind {
			case sql.KindInt:
				sum += float64(v.I)
			case sql.KindFloat:
				sum += v.F
				isInt = false
			default:
				return sql.Null, fmt.Errorf("engine: %s over non-numeric value", item.Func)
			}
		}
		if item.Func == "AVG" {
			return sql.NewFloat(sum / float64(len(vals))), nil
		}
		if isInt && sum == math.Trunc(sum) {
			return sql.NewInt(int64(sum)), nil
		}
		return sql.NewFloat(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sql.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := v.Compare(best)
			if (item.Func == "MIN" && c < 0) || (item.Func == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return sql.Null, fmt.Errorf("engine: unknown aggregate %s", item.Func)
}

// evalHaving evaluates a HAVING expression: aggregate calls compute over the
// group's rows; plain columns resolve against the group's first row.
func (ex *executor) evalHaving(e sql.Expr, a *plan.Agg, rows []Row, cols []plan.ColRef, outer *rowEnv) (sql.Bool3, error) {
	var sample Row
	if len(rows) > 0 {
		sample = rows[0]
	} else {
		sample = make(Row, len(cols))
		for i := range sample {
			sample[i] = sql.Null
		}
	}
	env := &rowEnv{cols: cols, row: sample, parent: outer}
	v, err := ex.evalExprAgg(e, env, rows, cols, outer)
	if err != nil {
		return sql.False3, err
	}
	return truth(v), nil
}

func rowHasNull(r Row) bool {
	for _, v := range r {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func rowKey(r Row) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	return b.String()
}

func projKey(r Row, pos []int) (key string, hasNull bool) {
	var b strings.Builder
	for _, p := range pos {
		v := r[p]
		if v.IsNull() {
			hasNull = true
		}
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	return b.String(), hasNull
}

func colIndex(cols []plan.ColRef, c plan.ColRef) int {
	for i, cc := range cols {
		if cc == c {
			return i
		}
	}
	// Fall back to unqualified match.
	for i, cc := range cols {
		if cc.Column == c.Column && (c.Table == "" || cc.Table == "") {
			return i
		}
	}
	return -1
}

func colIndexes(cols []plan.ColRef, want []plan.ColRef) []int {
	out := make([]int, len(want))
	for i, c := range want {
		out[i] = colIndex(cols, c)
		if out[i] < 0 {
			return nil
		}
	}
	return out
}
