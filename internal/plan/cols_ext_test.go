package plan_test

import (
	"math/rand"
	"slices"
	"testing"

	"wetune/internal/difftest"
	"wetune/internal/plan"
	"wetune/internal/sql"
	"wetune/internal/workload"
)

// TestAppendOutColsIsOutCols: the allocation-free column accessors the
// rewriter reads agree with the allocating ones on every node of every
// plannable corpus query and of random generated plans, and append after
// whatever dst holds.
func TestAppendOutColsIsOutCols(t *testing.T) {
	var plans []plan.Node
	schemas, items := workload.RewriteCorpus(100)
	for _, it := range items {
		if p, err := plan.BuildSQL(it.SQL, schemas[it.App]); err == nil {
			plans = append(plans, p)
		}
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plans = append(plans, difftest.GenPlan(rng, difftest.GenSchema(rng)))
	}
	prefix := []plan.ColRef{{Table: "dst", Column: "kept"}}
	nodes := 0
	for _, p := range plans {
		plan.Walk(p, func(n plan.Node) bool {
			nodes++
			got := plan.AppendOutCols(slices.Clone(prefix), n)
			if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], n.OutCols()) {
				t.Fatalf("AppendOutCols of %s: %v, want %v after %v", plan.Fingerprint(n), got, n.OutCols(), prefix)
			}
			switch x := n.(type) {
			case *plan.Join:
				l, r, ok := x.EquiCols()
				cols, ok2 := x.AppendEquiCols(slices.Clone(prefix))
				k := (len(cols) - 1) / 2
				if ok != ok2 || ok && (!slices.Equal(cols[1:1+k], l) || !slices.Equal(cols[1+k:], r)) || !ok && len(cols) != 1 {
					t.Fatalf("AppendEquiCols of %s: %v %v, EquiCols %v %v %v", plan.Fingerprint(n), cols, ok2, l, r, ok)
				}
			case *plan.Proj:
				cols, ok := x.AppendPlainCols(slices.Clone(prefix))
				want, wantOK := slices.Clone(prefix), true
				for _, it := range x.Items {
					if c, isCol := it.Expr.(*sql.ColumnRef); isCol {
						want = append(want, plan.ColRef{Table: c.Table, Column: c.Column})
					} else {
						want, wantOK = prefix, false
						break
					}
				}
				if ok != wantOK || !slices.Equal(cols, want) {
					t.Fatalf("AppendPlainCols of %s: %v %v, want %v %v", plan.Fingerprint(n), cols, ok, want, wantOK)
				}
			}
			return true
		})
	}
	t.Logf("%d nodes of %d plans", nodes, len(plans))
}

// TestColumnAccessorsAllocateNothing: into a buffer the caller owns, reading
// the output columns and the equi-join columns of a join of joins and
// projections allocates nothing.
func TestColumnAccessorsAllocateNothing(t *testing.T) {
	schema := sql.NewSchema()
	for _, name := range []string{"a", "b", "c"} {
		schema.AddTable(&sql.TableDef{Name: name, Columns: []sql.Column{{Name: "id", Type: sql.TInt}, {Name: "v", Type: sql.TInt}}})
	}
	p, err := plan.BuildSQL(`SELECT a.v FROM a INNER JOIN (SELECT b.id, b.v FROM b) AS d ON a.id = d.id
		INNER JOIN c ON d.v = c.v AND a.id = c.id WHERE a.v > 1`, schema)
	if err != nil {
		t.Fatal(err)
	}
	var join *plan.Join
	plan.Walk(p, func(n plan.Node) bool {
		if j, ok := n.(*plan.Join); ok && join == nil {
			join = j
		}
		return true
	})
	buf := make([]plan.ColRef, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = plan.AppendOutCols(buf[:0], join) }); n != 0 {
		t.Errorf("AppendOutCols: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = join.AppendEquiCols(buf[:0]) }); n != 0 {
		t.Errorf("AppendEquiCols: %v allocs, want 0", n)
	}
	if _, ok := join.AppendEquiCols(buf[:0]); !ok {
		t.Fatalf("%s is an equi-join", plan.ToSQLString(join))
	}
}
