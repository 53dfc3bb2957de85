package difftest

import (
	"fmt"
	"math/rand"

	"wetune/internal/plan"
	"wetune/internal/sql"
)

// genState threads the per-query alias counter so self-joins and subqueries
// scan the same table under distinct bindings.
type genState struct {
	rng    *rand.Rand
	schema *sql.Schema
	aliasN int
}

// typed pairs a subplan with per-column type information, so predicate and
// join generation can draw type-compatible comparisons.
type typed struct {
	node  plan.Node
	cols  []plan.ColRef
	types []sql.ColumnType
}

// GenPlan draws a random executable query plan over the schema: a join tree
// of base scans (inner/left/right) wrapped in random selections, projections,
// IN-subqueries, deduplication, aggregation, UNION ALL, and an occasional
// root-level sort. Every generated plan resolves all column references by
// construction (it passes plan.Check; TestGenPlanPassesCheck) and executes
// without error on any database over the schema.
//
// LIMIT is deliberately never generated: under bag-semantics comparison a
// LIMIT over tied sort keys picks an arbitrary subset, which would make the
// oracle flag legitimate rewrites.
func GenPlan(rng *rand.Rand, schema *sql.Schema) plan.Node {
	g := &genState{rng: rng, schema: schema}
	t := g.genSource()
	// Selection(s) over the source.
	for g.rng.Intn(2) == 0 {
		t = g.wrapSel(t)
	}
	// Optional IN-subquery keyed on an int column.
	if g.rng.Intn(3) == 0 {
		t = g.wrapInSub(t)
	}
	// Projection onto a random non-empty column subset.
	if g.rng.Intn(4) != 0 {
		t = g.wrapProj(t)
	}
	switch g.rng.Intn(6) {
	case 0:
		t = typed{node: &plan.Dedup{In: t.node}, cols: t.cols, types: t.types}
	case 1:
		t = g.wrapAgg(t)
	case 2:
		t = g.wrapUnion(t)
	}
	// Root-level sort exercises the printer and ORDER BY elimination without
	// affecting bag comparisons.
	if g.rng.Intn(4) == 0 && len(t.cols) > 0 {
		k := g.rng.Intn(len(t.cols))
		t.node = &plan.Sort{Keys: []plan.SortKey{{Col: t.cols[k], Desc: g.rng.Intn(2) == 0}}, In: t.node}
	}
	return t.node
}

// genSource builds the FROM shape: one scan, or a two-way join.
func (g *genState) genSource() typed {
	left := g.genScan()
	if g.rng.Intn(2) == 0 {
		return left
	}
	right := g.genScan()
	li, ri, ok := g.joinableCols(left, right)
	if !ok {
		return left
	}
	kinds := []sql.JoinKind{sql.InnerJoin, sql.LeftJoin, sql.RightJoin}
	kind := kinds[g.rng.Intn(len(kinds))]
	on := &sql.BinaryExpr{Op: "=",
		L: &sql.ColumnRef{Table: left.cols[li].Table, Column: left.cols[li].Column},
		R: &sql.ColumnRef{Table: right.cols[ri].Table, Column: right.cols[ri].Column}}
	return typed{
		node:  &plan.Join{JoinKind: kind, On: on, L: left.node, R: right.node},
		cols:  append(append([]plan.ColRef{}, left.cols...), right.cols...),
		types: append(append([]sql.ColumnType{}, left.types...), right.types...),
	}
}

func (g *genState) genScan() typed {
	names := g.schema.TableNames()
	name := names[g.rng.Intn(len(names))]
	def, _ := g.schema.Table(name)
	alias := fmt.Sprintf("s%d", g.aliasN)
	g.aliasN++
	sc, err := plan.NewScan(g.schema, name, alias)
	if err != nil {
		panic(fmt.Sprintf("difftest: scan of generated table failed: %v", err))
	}
	types := make([]sql.ColumnType, len(def.Columns))
	for i, c := range def.Columns {
		types[i] = c.Type
	}
	return typed{node: sc, cols: sc.Cols, types: types}
}

// joinableCols picks a same-typed column pair across the two sides,
// preferring integer columns (keys join meaningfully).
func (g *genState) joinableCols(l, r typed) (int, int, bool) {
	var pairs [][2]int
	for i, lt := range l.types {
		for j, rt := range r.types {
			if lt == rt && lt == sql.TInt {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	if len(pairs) == 0 {
		for i, lt := range l.types {
			for j, rt := range r.types {
				if lt == rt {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
	}
	if len(pairs) == 0 {
		return 0, 0, false
	}
	p := pairs[g.rng.Intn(len(pairs))]
	return p[0], p[1], true
}

func (g *genState) wrapSel(t typed) typed {
	pred := g.genPred(t, 2)
	return typed{node: &plan.Sel{Pred: pred, In: t.node}, cols: t.cols, types: t.types}
}

// genPred draws a random predicate over the subplan's columns. depth bounds
// AND/OR/NOT nesting; a leaf may be a CASE comparison or read a related table
// through a correlated subquery (genCorrelated).
func (g *genState) genPred(t typed, depth int) sql.Expr {
	if depth > 0 && g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return &sql.BinaryExpr{Op: "AND", L: g.genPred(t, depth-1), R: g.genPred(t, depth-1)}
		case 1:
			return &sql.BinaryExpr{Op: "OR", L: g.genPred(t, depth-1), R: g.genPred(t, depth-1)}
		default:
			return &sql.UnaryExpr{Op: "NOT", E: g.genPred(t, depth-1)}
		}
	}
	k := g.rng.Intn(len(t.cols))
	col := &sql.ColumnRef{Table: t.cols[k].Table, Column: t.cols[k].Column}
	switch g.rng.Intn(7) {
	case 0:
		return &sql.IsNullExpr{E: col, Negated: g.rng.Intn(2) == 0}
	case 5:
		// A CASE whose condition and arms read the subplan's columns.
		return &sql.BinaryExpr{Op: g.cmpOp(),
			L: &sql.CaseExpr{
				Whens: []sql.CaseWhen{{Cond: g.genPred(t, 0), Then: col}},
				Else:  &sql.Literal{Val: g.genValue(t.types[k])},
			},
			R: &sql.Literal{Val: g.genValue(t.types[k])}}
	case 6:
		if e := g.genCorrelated(t); e != nil {
			return e
		}
		fallthrough
	case 1:
		// Column-to-column comparison of matching type, when available.
		for _, j := range g.rng.Perm(len(t.cols)) {
			if j != k && t.types[j] == t.types[k] {
				return &sql.BinaryExpr{Op: g.cmpOp(), L: col,
					R: &sql.ColumnRef{Table: t.cols[j].Table, Column: t.cols[j].Column}}
			}
		}
		fallthrough
	case 2:
		list := make([]sql.Expr, 1+g.rng.Intn(3))
		for i := range list {
			list[i] = &sql.Literal{Val: g.genValue(t.types[k])}
		}
		return &sql.InListExpr{E: col, List: list, Negated: g.rng.Intn(4) == 0}
	default:
		return &sql.BinaryExpr{Op: g.cmpOp(), L: col, R: &sql.Literal{Val: g.genValue(t.types[k])}}
	}
}

// genCorrelated draws [NOT] EXISTS, or a comparison with a scalar MAX
// subquery, over a table that a generated foreign key relates to one of the
// subplan's columns, correlated on that key; nil when no column has one. A
// third of them nest an EXISTS that reads both the subquery's row and the
// subplan's, two levels out.
func (g *genState) genCorrelated(t typed) sql.Expr {
	for _, k := range g.rng.Perm(len(t.cols)) {
		for _, name := range g.schema.TableNames() {
			def, _ := g.schema.Table(name)
			for _, fk := range def.ForeignKeys {
				table, key := name, fk.Columns[0] // the subplan holds the parent's key: its children
				if t.cols[k].Column == key {
					table, key = fk.RefTable, fk.RefColumns[0] // it holds the reference: the parent
				} else if t.cols[k].Column != fk.RefColumns[0] {
					continue
				}
				stmt, alias := g.keyedSubquery(table, key, t.cols[k])
				pk := table + "_id"
				if g.rng.Intn(3) == 0 {
					// Two levels: another row keyed by the same subplan
					// column, compared with this subquery's row.
					inner, innerAlias := g.keyedSubquery(table, key, t.cols[k])
					inner.Where = &sql.BinaryExpr{Op: "AND", L: inner.Where, R: &sql.BinaryExpr{Op: g.cmpOp(),
						L: &sql.ColumnRef{Table: innerAlias, Column: pk}, R: &sql.ColumnRef{Table: alias, Column: pk}}}
					stmt.Where = &sql.BinaryExpr{Op: "AND", L: stmt.Where, R: &sql.ExistsExpr{Select: inner}}
				}
				if g.rng.Intn(2) == 0 {
					return &sql.ExistsExpr{Select: stmt, Negated: g.rng.Intn(3) == 0}
				}
				stmt.Items[0].Expr = &sql.FuncCall{Name: "MAX", Args: []sql.Expr{&sql.ColumnRef{Table: alias, Column: pk}}}
				return &sql.BinaryExpr{Op: g.cmpOp(), L: &sql.Literal{Val: g.genValue(sql.TInt)}, R: &sql.ScalarSubquery{Select: stmt}}
			}
		}
	}
	return nil
}

// keyedSubquery returns SELECT 1 FROM table AS sN WHERE sN.key = outer, with
// a fresh alias sN.
func (g *genState) keyedSubquery(table, key string, outer plan.ColRef) (*sql.SelectStmt, string) {
	alias := fmt.Sprintf("s%d", g.aliasN)
	g.aliasN++
	return &sql.SelectStmt{
		Items: []sql.SelectItem{{Expr: &sql.Literal{Val: sql.NewInt(1)}}},
		From:  &sql.TableName{Name: table, Alias: alias},
		Where: &sql.BinaryExpr{Op: "=",
			L: &sql.ColumnRef{Table: alias, Column: key},
			R: &sql.ColumnRef{Table: outer.Table, Column: outer.Column}},
	}, alias
}

func (g *genState) cmpOp() string {
	ops := []string{"=", "=", "=", "<>", "<", "<=", ">", ">="}
	return ops[g.rng.Intn(len(ops))]
}

// genValue draws a literal from the same domain datagen fills columns with
// (see datagen.columnValue), so predicates have non-trivial selectivity.
func (g *genState) genValue(t sql.ColumnType) sql.Value {
	v := int64(g.rng.Intn(genDistinctValues))
	switch t {
	case sql.TString:
		return sql.NewString(fmt.Sprintf("v%04d", v))
	case sql.TFloat:
		return sql.NewFloat(float64(v) + 0.5)
	case sql.TBool:
		return sql.NewBool(v%2 == 0)
	default:
		return sql.NewInt(v)
	}
}

// genDistinctValues is the value-domain size shared between data generation
// and predicate literals.
const genDistinctValues = 8

func (g *genState) wrapProj(t typed) typed {
	n := 1 + g.rng.Intn(len(t.cols))
	perm := g.rng.Perm(len(t.cols))[:n]
	items := make([]plan.ProjItem, n)
	cols := make([]plan.ColRef, n)
	types := make([]sql.ColumnType, n)
	for i, idx := range perm {
		items[i] = plan.ProjItem{Expr: &sql.ColumnRef{Table: t.cols[idx].Table, Column: t.cols[idx].Column}}
		cols[i] = t.cols[idx]
		types[i] = t.types[idx]
	}
	p := &plan.Proj{Items: items, In: t.node}
	return typed{node: p, cols: p.OutCols(), types: types}
}

func (g *genState) wrapInSub(t typed) typed {
	// Key the membership test on an int column when one exists.
	k := -1
	for _, i := range g.rng.Perm(len(t.cols)) {
		if t.types[i] == sql.TInt {
			k = i
			break
		}
	}
	if k < 0 {
		return t
	}
	sub := g.genScan()
	sk := -1
	for _, i := range g.rng.Perm(len(sub.cols)) {
		if sub.types[i] == sql.TInt {
			sk = i
			break
		}
	}
	if sk < 0 {
		return t
	}
	subPlan := typed{node: sub.node, cols: sub.cols, types: sub.types}
	if g.rng.Intn(2) == 0 {
		subPlan = g.wrapSel(subPlan)
	}
	proj := &plan.Proj{
		Items: []plan.ProjItem{{Expr: &sql.ColumnRef{Table: sub.cols[sk].Table, Column: sub.cols[sk].Column}}},
		In:    subPlan.node,
	}
	return typed{
		node:  &plan.InSub{Cols: []plan.ColRef{t.cols[k]}, In: t.node, Sub: proj},
		cols:  t.cols,
		types: t.types,
	}
}

func (g *genState) wrapAgg(t typed) typed {
	gi := g.rng.Intn(len(t.cols))
	items := []plan.AggItem{{Func: "COUNT", Star: true, Alias: "n"}}
	// A second aggregate over a numeric column, when one exists.
	for _, i := range g.rng.Perm(len(t.cols)) {
		if t.types[i] == sql.TInt || t.types[i] == sql.TFloat {
			funcs := []string{"SUM", "MIN", "MAX"}
			items = append(items, plan.AggItem{
				Func:  funcs[g.rng.Intn(len(funcs))],
				Arg:   &sql.ColumnRef{Table: t.cols[i].Table, Column: t.cols[i].Column},
				Alias: "agg1",
			})
			break
		}
	}
	a := &plan.Agg{GroupBy: []plan.ColRef{t.cols[gi]}, Items: items, In: t.node}
	types := []sql.ColumnType{t.types[gi], sql.TInt}
	for range items[1:] {
		types = append(types, sql.TFloat)
	}
	return typed{node: a, cols: a.OutCols(), types: types}
}

// wrapUnion duplicates the plan shape with fresh scans and distinct
// selections, yielding UNION ALL arms of identical arity and types.
func (g *genState) wrapUnion(t typed) typed {
	// Project both arms onto the same column names: reuse the left arm's plan
	// with a different selection as the right arm.
	right := g.wrapSel(typed{node: t.node, cols: t.cols, types: t.types})
	u := &plan.Union{All: true, L: t.node, R: right.node}
	return typed{node: u, cols: u.OutCols(), types: t.types}
}
