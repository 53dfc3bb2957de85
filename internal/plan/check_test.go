package plan_test

import (
	"slices"
	"strings"
	"testing"

	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/workload"
)

// calciteDB is the Calcite schema with one department and two employees in
// it, earning 10 and 20.
func calciteDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB(workload.CalciteSchema())
	db.MustInsert("dept", engine.Row{sql.NewInt(1), sql.NewString("d")})
	for i, sal := range []int64{10, 20} {
		db.MustInsert("emp", engine.Row{sql.NewInt(int64(i + 1)), sql.NewString("e"), sql.NewInt(1),
			sql.NewInt(sal), sql.Null, sql.NewString("j")})
	}
	return db
}

// TestCheckRejectsIllFormedPlans has one ill-formed plan per rule of
// plan.Check. Before the engine ran Check, it executed each of them on
// calciteDB without an error: a dangling reference sits behind a
// short-circuited OR, and a dangling key names an aliased column by a table
// it does not have, which the engine's column lookup accepts. Execute now
// fails with Check's error.
func TestCheckRejectsIllFormedPlans(t *testing.T) {
	db := calciteDB(t)
	schema := db.Schema
	scan := func(table string) *plan.Scan {
		s, err := plan.NewScan(schema, table, table)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	col := func(table, column string) *sql.ColumnRef { return &sql.ColumnRef{Table: table, Column: column} }
	one := &sql.Literal{Val: sql.NewInt(1)}
	eq := func(l, r sql.Expr) sql.Expr { return &sql.BinaryExpr{Op: "=", L: l, R: r} }
	// orGhost is true on every row before its right side, which reads a
	// table no input has, is evaluated.
	orGhost := &sql.BinaryExpr{Op: "OR", L: eq(one, one), R: eq(col("ghost", "x"), one)}
	// aliased outputs emp.empno as the bare column e; emp.e names no column.
	aliased := &plan.Proj{Items: []plan.ProjItem{{Expr: col("emp", "empno"), Alias: "e"}}, In: scan("emp")}
	empE := plan.ColRef{Table: "emp", Column: "e"}
	deptnos := &plan.Proj{Items: []plan.ProjItem{{Expr: col("dept", "deptno")}}, In: scan("dept")}
	var deep plan.Node = scan("emp")
	for range plan.MaxNodes + 1 {
		deep = &plan.Sel{Pred: eq(one, one), In: deep}
	}

	for _, c := range []struct {
		name string
		p    plan.Node
		want string
	}{
		{"projection", &plan.Proj{Items: []plan.ProjItem{{Expr: orGhost}}, In: scan("emp")},
			"dangling projection column ghost.x"},
		{"predicate", &plan.Sel{Pred: orGhost, In: scan("emp")},
			"dangling predicate column ghost.x"},
		{"join condition", &plan.Join{JoinKind: sql.InnerJoin, On: orGhost, L: scan("emp"), R: scan("dept")},
			"dangling join column ghost.x"},
		{"aggregate argument", &plan.Agg{Items: []plan.AggItem{{Func: "COUNT", Arg: orGhost}}, In: scan("emp")},
			"dangling aggregate column ghost.x"},
		{"HAVING", &plan.Agg{
			Items:  []plan.AggItem{{Func: "COUNT", Star: true}},
			Having: &sql.BinaryExpr{Op: ">", L: &sql.FuncCall{Name: "COUNT", Args: []sql.Expr{orGhost}}, R: one},
			In:     scan("emp"),
		}, "dangling HAVING column ghost.x"},
		{"IN column", &plan.InSub{Cols: []plan.ColRef{empE}, In: aliased, Sub: deptnos},
			"dangling IN column emp.e"},
		{"group-by key", &plan.Agg{GroupBy: []plan.ColRef{empE}, In: aliased},
			"dangling group-by column emp.e"},
		{"sort key", &plan.Sort{Keys: []plan.SortKey{{Col: empE}}, In: aliased},
			"dangling sort column emp.e"},
		{"IN arity", &plan.InSub{Cols: []plan.ColRef{{Table: "emp", Column: "deptno"}}, In: scan("emp"), Sub: scan("dept")},
			"IN subquery has 2 columns for 1 IN columns"},
		{"UNION arity", &plan.Union{All: true, L: scan("emp"), R: deptnos},
			"UNION arms have 6 vs 1 columns"},
		{"MaxNodes", deep, "more than the 192 operators"},
	} {
		_, err := plan.Check(nil, c.p, schema)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check says %v, want %q", c.name, err, c.want)
			continue
		}
		if _, xerr := db.Execute(c.p, nil); xerr == nil || xerr.Error() != err.Error() {
			t.Errorf("%s: Execute says %v, want Check's error %q", c.name, xerr, err)
		}
	}
}

// TestCheckAllocatesNothingWithScratch: with scratch kept across calls, a
// plan that passes allocates nothing, and the scratch comes back at the
// length it was given. The aggregate is aliased: the generated name of an
// unaliased one, which a HAVING may read, is built per call.
func TestCheckAllocatesNothingWithScratch(t *testing.T) {
	schema := workload.CalciteSchema()
	p, err := plan.BuildSQL(`SELECT e.deptno, COUNT(*) AS n FROM emp AS e JOIN dept AS d ON e.deptno = d.deptno
		WHERE e.sal > 1 AND e.deptno IN (SELECT deptno FROM dept) GROUP BY e.deptno HAVING COUNT(*) > 1`, schema)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]plan.ColRef, 1, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if scratch, err = plan.Check(scratch, p, schema); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || len(scratch) != 1 {
		t.Errorf("Check: %v allocations, scratch length %d; want 0 and 1", allocs, len(scratch))
	}
}

// TestOrderByOtherSelfJoinInstance: an ORDER BY key read from the instance
// of a self-join that the projection drops is sorted below the projection.
// Matching keys by bare column name placed the sort above it, where b.sal
// does not resolve, and the engine then sorted by a.sal.
func TestOrderByOtherSelfJoinInstance(t *testing.T) {
	db := calciteDB(t)
	p, err := plan.BuildSQL(`SELECT a.sal FROM emp AS a JOIN emp AS b ON a.deptno = b.deptno ORDER BY b.sal`, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	proj, ok := p.(*plan.Proj)
	if !ok || proj.In.Kind() != plan.KSort {
		t.Fatalf("plan %s: want the Sort below the Proj", plan.ToSQLString(p))
	}
	if _, err := plan.Check(nil, p, db.Schema); err != nil {
		t.Fatal(err)
	}
	res, err := db.Execute(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range res.Rows {
		got = append(got, row[0].I)
	}
	if want := []int64{10, 20, 10, 20}; !slices.Equal(got, want) {
		t.Errorf("rows %v, want %v (in b.sal order)", got, want)
	}
}
