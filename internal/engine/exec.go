package engine

import (
	"fmt"
	"math"
	"sort"

	"wetune/internal/plan"
	"wetune/internal/sql"
)

// Execute runs a logical plan and returns its result rows. params supplies
// values for `?` placeholders. A plan that fails plan.Check is an error; the
// subquery plans the executor builds are not checked, because they read
// enclosing rows.
func (db *DB) Execute(p plan.Node, params []sql.Value) (*Result, error) {
	if _, err := plan.Check(nil, p, db.Schema); err != nil {
		return nil, err
	}
	ex := &executor{db: db, params: params, subs: map[*sql.SelectStmt]*subquery{}}
	return ex.exec(p, nil)
}

// executor carries per-execution state: parameter values and the predicate
// subqueries planned so far.
type executor struct {
	db     *DB
	params []sql.Value
	subs   map[*sql.SelectStmt]*subquery
}

// subquery is a predicate subquery planned for one statement execution.
type subquery struct {
	plan       plan.Node
	correlated bool    // it reads an enclosing row
	res        *Result // an uncorrelated subquery's result, once run
}

// rowEnv resolves column references against the current row and then the
// enclosing rows, innermost first. In an aggregate's env, group points at
// the group's rows and row is the first of them, or NULLs; elsewhere group
// is nil. (A pointer keeps the struct at 64 bytes: Sel and Proj allocate one
// per row.)
type rowEnv struct {
	cols   []plan.ColRef
	row    Row
	group  *[]Row
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
			if !row.hasNull(nil) {
				set[row.Key(nil)] = true
			}
		}
		pos := colIndexes(in.Cols, x.Cols)
		if pos == nil {
			return nil, fmt.Errorf("engine: IN columns %v not found", x.Cols)
		}
		out := &Result{Cols: in.Cols}
		for _, row := range in.Rows {
			ex.db.Stats.RowsVisited++
			if !row.hasNull(pos) && set[row.Key(pos)] {
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
		ex.db.Stats.RowsVisited += int64(len(in.Rows))
		return &Result{Cols: in.Cols, Rows: distinct(in.Rows)}, nil

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
			out.Rows = distinct(out.Rows)
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
	ix, indexed := t.indexes[cr.Column]
	if !indexed {
		return nil, false, nil
	}
	v, err := ex.evalExpr(valExpr, outer)
	if err != nil {
		return nil, false, err
	}
	if v.IsNull() {
		return &Result{Cols: scan.OutCols()}, true, nil
	}
	ids := ix.m[Row{v}.Key(nil)]
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
	lc, rc, equi := j.EquiCols()
	if equi && j.JoinKind != sql.CrossJoin {
		lpos := colIndexes(l.Cols, lc)
		rpos := colIndexes(r.Cols, rc)
		if lpos != nil && rpos != nil {
			// Hash join: build on the right, probe from the left.
			build := map[string][]Row{}
			for _, row := range r.Rows {
				ex.db.Stats.RowsVisited++
				if !row.hasNull(rpos) {
					key := row.Key(rpos)
					build[key] = append(build[key], row)
				}
			}
			rightMatched := map[string]bool{}
			for _, lrow := range l.Rows {
				ex.db.Stats.RowsVisited++
				var matches []Row
				key := lrow.Key(lpos)
				if !lrow.hasNull(lpos) {
					matches = build[key]
				}
				if len(matches) == 0 {
					if j.JoinKind == sql.LeftJoin {
						out.Rows = append(out.Rows, append(append(Row{}, lrow...), nullRow(len(r.Cols))...))
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
					if rrow.hasNull(rpos) || !rightMatched[rrow.Key(rpos)] {
						out.Rows = append(out.Rows, append(nullRow(len(l.Cols)), rrow...))
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
			out.Rows = append(out.Rows, append(append(Row{}, lrow...), nullRow(len(r.Cols))...))
		}
	}
	if j.JoinKind == sql.RightJoin {
		for ri, rrow := range r.Rows {
			if !rightSeen[ri] {
				out.Rows = append(out.Rows, append(nullRow(len(l.Cols)), rrow...))
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
	if gpos == nil {
		return nil, fmt.Errorf("engine: group-by column missing")
	}
	groups := map[string][]Row{}
	var order []string
	for _, row := range in.Rows {
		ex.db.Stats.RowsVisited++
		key := row.Key(gpos)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	if len(a.GroupBy) == 0 && len(order) == 0 {
		order = append(order, "") // one group, empty
	}
	out := &Result{Cols: a.OutCols()}
	for _, key := range order {
		group := groups[key]
		env := &rowEnv{cols: in.Cols, group: &group, parent: outer}
		if len(group) > 0 {
			env.row = group[0]
		} else {
			env.row = nullRow(len(in.Cols))
		}
		outRow := make(Row, 0, len(a.GroupBy)+len(a.Items))
		for _, p := range gpos {
			outRow = append(outRow, env.row[p])
		}
		for _, item := range a.Items {
			v, err := ex.aggValue(item, env)
			if err != nil {
				return nil, err
			}
			outRow = append(outRow, v)
		}
		if a.Having != nil {
			hv, err := ex.evalBool(a.Having, env)
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

// aggValue computes an aggregate over the group of env, an aggregate's env.
func (ex *executor) aggValue(item plan.AggItem, env *rowEnv) (sql.Value, error) {
	if item.Star && item.Func == "COUNT" {
		return sql.NewInt(int64(len(*env.group))), nil
	}
	var vals []sql.Value
	seen := map[string]bool{}
	for _, row := range *env.group {
		v, err := ex.evalExpr(item.Arg, &rowEnv{cols: env.cols, row: row, parent: env.parent})
		if err != nil {
			return sql.Null, err
		}
		if v.IsNull() {
			continue
		}
		if item.Distinct {
			k := Row{v}.Key(nil)
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

// distinct returns rows without the repeats of an earlier row, in order.
func distinct(rows []Row) []Row {
	seen := map[string]bool{}
	var out []Row
	for _, row := range rows {
		if k := row.Key(nil); !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}

// nullRow returns n NULLs.
func nullRow(n int) Row {
	row := make(Row, n)
	for i := range row {
		row[i] = sql.Null
	}
	return row
}
