package sql

import (
	"reflect"
	"strings"
	"testing"
)

// allKinds is one expression holding every one of the thirteen kinds.
const allKindsSQL = `SELECT * FROM t WHERE NOT (t.a + 1 = ? AND t.b IS NOT NULL) AND t.c IN (1, t.d)
	AND (t.e, 2) IN (SELECT u.x, u.y FROM u) AND EXISTS (SELECT 1 FROM u) AND F(t.f, 3) > (SELECT MAX(u.x) FROM u)
	AND CASE WHEN t.g > 4 THEN t.h WHEN t.i IS NULL THEN 5 ELSE t.j END = 6`

// TestMapChildrenIsTheDefinitionOfStructure feeds all thirteen kinds through
// the one structural switch and the three functions written on it: the walk
// visits exactly the children the map offers, an identity map returns its
// input, and a clone is a different tree with the same text.
func TestMapChildrenIsTheDefinitionOfStructure(t *testing.T) {
	root := MustParse(allKindsSQL).Where
	kinds := map[reflect.Type]bool{}
	var offered, walked []Expr
	var offer func(e Expr) Expr
	offer = func(e Expr) Expr {
		offered = append(offered, e)
		return MapChildren(e, offer)
	}
	if out := offer(root); out != root {
		t.Errorf("identity map returned a different node")
	}
	WalkExprs(root, func(e Expr) bool {
		kinds[reflect.TypeOf(e)] = true
		walked = append(walked, e)
		return true
	})
	if len(kinds) != 13 {
		t.Errorf("the fixture covers %d expression kinds, want 13", len(kinds))
	}
	if !reflect.DeepEqual(offered, walked) {
		t.Errorf("the walk visited %d nodes, the map offered %d, or in another order", len(walked), len(offered))
	}

	clone := CloneExpr(root)
	if FormatExpr(clone) != FormatExpr(root) {
		t.Fatalf("clone prints %s", FormatExpr(clone))
	}
	shared := map[Expr]bool{}
	WalkExprs(root, func(e Expr) bool { shared[e] = true; return true })
	WalkExprs(clone, func(e Expr) bool {
		switch e.(type) {
		case *ExistsExpr, *ScalarSubquery: // childless and immutable: shared by contract
		default:
			if shared[e] {
				t.Errorf("clone shares %T %s with the original", e, FormatExpr(e))
			}
		}
		return true
	})

	// Pruning: a false return keeps the walk out of that node's children only.
	var seen []string
	WalkExprs(root, func(e Expr) bool {
		if c, ok := e.(*ColumnRef); ok {
			seen = append(seen, c.Column)
		}
		_, isCase := e.(*CaseExpr)
		return !isCase
	})
	if got := strings.Join(seen, ""); got != "abcdef" {
		t.Errorf("walk with CASE pruned saw columns %q, want abcdef", got)
	}
}

func freeColumnsOf(t *testing.T, where string, schema *Schema) string {
	t.Helper()
	var out []string
	FreeColumns(MustParse("SELECT * FROM o WHERE "+where).Where, schema, func(c *ColumnRef) {
		out = append(out, FormatExpr(c))
	})
	return strings.Join(out, " ")
}

// TestFreeColumnsScoping: an expression's free column references are its own
// ColumnRefs plus what the embedded statements read from outside themselves,
// by the engine's innermost-first resolution.
func TestFreeColumnsScoping(t *testing.T) {
	schema := NewSchema()
	schema.AddTable(&TableDef{Name: "o", Columns: []Column{{Name: "k"}, {Name: "v"}}})
	schema.AddTable(&TableDef{Name: "u", Columns: []Column{{Name: "x"}, {Name: "y"}}})
	schema.AddTable(&TableDef{Name: "w", Columns: []Column{{Name: "x"}, {Name: "z"}}})
	for _, c := range []struct{ where, want, wantNoSchema string }{
		{"CASE WHEN o.k > 0 THEN o.v ELSE v END = 1", "o.k o.v v", ""},
		{"o.k IN (SELECT u.x FROM u WHERE u.y = o.v)", "o.k o.v", ""},
		{"(o.k, v) NOT IN (SELECT x, y FROM u)", "o.k v", ""},
		// Unqualified names: the inner tables first, the schema decides.
		{"EXISTS (SELECT 1 FROM u WHERE x = k AND y = 2)", "k", "-"},
		// Every clause, not just WHERE.
		{"EXISTS (SELECT o.k, COUNT(*) FROM u INNER JOIN w ON u.x = w.x AND w.z = o.v GROUP BY u.y, o.k HAVING MAX(w.z) > o.v ORDER BY o.k ASC LIMIT 1)",
			"o.k o.v o.k o.v o.k", ""},
		// Nesting: a name an intermediate FROM introduces is not free, whatever the depth.
		{"EXISTS (SELECT 1 FROM u WHERE EXISTS (SELECT 1 FROM w WHERE w.x = u.x AND w.z = o.k AND y = v))", "o.k v", "o.k"},
		// Shadowing: the inner o hides the outer one, for qualified and unqualified names.
		{"EXISTS (SELECT 1 FROM u AS o WHERE o.x = 1 AND k = 2)", "k", "-"},
		{"o.k = (SELECT MAX(o.k) FROM o WHERE v > 0)", "o.k", ""},
		// A derived table sees outside its own FROM clause only; ON sees all of it.
		{"EXISTS (SELECT 1 FROM u INNER JOIN (SELECT w.x FROM w WHERE w.z = u.y) AS d ON d.x = u.x)", "u.y", ""},
		// Derived-table outputs resolve unqualified names; ORDER BY may name an alias.
		{"EXISTS (SELECT y AS q FROM (SELECT u.y, u.x AS r FROM u) AS d WHERE r = 1 AND x = 2 ORDER BY q ASC LIMIT 1)", "x", "-"},
		// Set operations: each arm is a scope of its own.
		{"o.k IN (SELECT u.x FROM u WHERE u.y = o.v UNION SELECT w.x FROM w WHERE w.z = u.y)", "o.k o.v u.y", ""},
	} {
		if got := freeColumnsOf(t, c.where, schema); got != c.want {
			t.Errorf("%s\n   free columns %q, want %q", c.where, got, c.want)
		}
		// Without a schema an unqualified name inside an embedded statement is
		// the statement's own; everything else is unchanged.
		want := c.wantNoSchema
		if want == "" {
			want = c.want
		} else if want == "-" {
			want = ""
		}
		if got := freeColumnsOf(t, c.where, nil); got != want {
			t.Errorf("%s\n   free columns without schema %q, want %q", c.where, got, want)
		}
	}
}

// TestMapFreeColumnsCopyOnWrite: rewriting a correlated reference yields new
// nodes along its path only — the embedded statement another expression may
// still point to keeps its text — and an identity map allocates nothing.
func TestMapFreeColumnsCopyOnWrite(t *testing.T) {
	stmt := MustParse(`SELECT * FROM o WHERE o.k > 1 AND EXISTS (SELECT 1 FROM u WHERE u.x = o.k ORDER BY u.y ASC) AND o.v IN (SELECT w.x FROM w)`)
	before := Format(stmt)
	rename := func(c *ColumnRef) *ColumnRef {
		if c.Table == "o" {
			return &ColumnRef{Table: "p", Column: c.Column}
		}
		return c
	}
	out := MapFreeColumns(stmt.Where, nil, rename)
	const want = "p.k > 1 AND EXISTS (SELECT 1 FROM u WHERE u.x = p.k ORDER BY u.y ASC) AND p.v IN (SELECT w.x FROM w)"
	if got := FormatExpr(out); got != want {
		t.Errorf("renamed: %s\n   want: %s", got, want)
	}
	if after := Format(stmt); after != before {
		t.Errorf("the original changed: %s", after)
	}
	// The untouched statement is shared, the touched one is not.
	in := func(e Expr) (sel []*SelectStmt) {
		WalkExprs(e, func(x Expr) bool {
			switch q := x.(type) {
			case *ExistsExpr:
				sel = append(sel, q.Select)
			case *InSubquery:
				sel = append(sel, q.Select)
			}
			return true
		})
		return sel
	}
	if a, b := in(stmt.Where), in(out); a[0] == b[0] || a[1] != b[1] {
		t.Errorf("EXISTS statement copied = %v, uncorrelated IN statement shared = %v; want true, true", a[0] != b[0], a[1] == b[1])
	}
	identity := func(c *ColumnRef) *ColumnRef { return c }
	if same := MapFreeColumns(stmt.Where, nil, identity); same != stmt.Where {
		t.Errorf("identity map returned a different node")
	}
	if n := testing.AllocsPerRun(100, func() { MapFreeColumns(stmt.Where, nil, identity) }); n != 0 {
		t.Errorf("identity map: %v allocs, want 0", n)
	}
	count := 0
	if n := testing.AllocsPerRun(100, func() { FreeColumns(stmt.Where, nil, func(*ColumnRef) { count++ }) }); n != 0 {
		t.Errorf("FreeColumns: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { WalkExprs(stmt.Where, func(Expr) bool { count++; return true }) }); n != 0 {
		t.Errorf("WalkExprs: %v allocs, want 0", n)
	}
}
