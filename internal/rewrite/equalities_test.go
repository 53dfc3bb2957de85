package rewrite

import (
	"slices"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/sql"
	"wetune/internal/template"
	"wetune/internal/workload"
)

// TestMatcherEnforcesEqualitiesThroughDestinationSymbols pins two discovered
// rule shapes that state an equality of source symbols only through a
// destination-only symbol: Sel_p0,a0(Sel_p1,a1(r0)) ⇒ Sel_p2,a2(r1) equates
// p0 and p1 by PredEq(p0,p2), PredEq(p1,p2), and the join rule equates r0 and
// r1 by RelEq(r0,r2), RelEq(r1,r2). The matcher used to check each stated
// equality only when both its symbols were bound, so those equalities went
// unchecked and the rules fired on unequal bindings; wrong is the SQL it then
// answered. A negative case must not fire its rule; a positive case, whose
// bindings do agree, must fire it and answer want.
func TestMatcherEnforcesEqualitiesThroughDestinationSymbols(t *testing.T) {
	sym := func(k template.SymKind, id int) template.Sym { return template.Sym{Kind: k, ID: id} }
	r0, r1, r2 := sym(template.KRel, 0), sym(template.KRel, 1), sym(template.KRel, 2)
	a0, a1, a2, a3 := sym(template.KAttrs, 0), sym(template.KAttrs, 1), sym(template.KAttrs, 2), sym(template.KAttrs, 3)
	p0, p1, p2 := sym(template.KPred, 0), sym(template.KPred, 1), sym(template.KPred, 2)
	eq := func(k constraint.Kind, x, y template.Sym) constraint.C { return constraint.New(k, x, y) }

	selSel := rules.Rule{No: 1000, Name: "sel-sel-merge",
		// Sel_p0,a0(Sel_p1,a1(r0)) ⇒ Sel_p2,a2(r1)
		Src:  template.Sel(p0, a0, template.Sel(p1, a1, template.Input(r0))),
		Dest: template.Sel(p2, a2, template.Input(r1)),
		Constraints: constraint.NewSet(eq(constraint.RelEq, r0, r1),
			eq(constraint.AttrsEq, a0, a2), eq(constraint.AttrsEq, a1, a2),
			eq(constraint.PredEq, p0, p2), eq(constraint.PredEq, p1, p2)),
	}
	selfJoin := rules.Rule{No: 1001, Name: "proj-self-join-elim",
		// Proj_a0(IJoin_a1,a2(r0, r1)) ⇒ Proj_a3(r2)
		Src:  template.Proj(a0, template.Join(template.OpIJoin, a1, a2, template.Input(r0), template.Input(r1))),
		Dest: template.Proj(a3, template.Input(r2)),
		Constraints: constraint.NewSet(eq(constraint.RelEq, r0, r2), eq(constraint.RelEq, r1, r2),
			eq(constraint.AttrsEq, a0, a3), eq(constraint.AttrsEq, a1, a3), eq(constraint.AttrsEq, a2, a3),
			constraint.New(constraint.Unique, r2, a2), constraint.New(constraint.NotNull, r2, a2),
			constraint.New(constraint.SubAttrs, a2, template.AttrsOf(r1))),
	}
	calcite, gitlab := workload.CalciteSchema(), gitlabSchema()
	cases := []struct {
		name    string
		rule    rules.Rule
		library bool // whether the library rules ride along
		schema  *sql.Schema
		query   string
		wrong   string // negative: the SQL answered while the equalities went unchecked
		want    string // positive: the SQL the rule answers
	}{
		{"sel-sel unequal predicates", selSel, true, calcite,
			`SELECT empno FROM emp WHERE sal = 0 AND job = 'J0'`,
			`SELECT emp.empno FROM emp WHERE emp.job = 'J0'`, ""},
		{"sel-sel equal predicates", selSel, false, calcite,
			`SELECT empno FROM emp WHERE sal = 0 AND sal = 0`,
			"", `SELECT emp.empno FROM emp WHERE emp.sal = 0`},
		// At the parent: insub-to-join, then this rule, then self-insub-elim.
		{"self-join unequal inputs", selfJoin, true, gitlab,
			`SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 26) ORDER BY title ASC)`,
			`SELECT * FROM labels`, ""},
		{"self-join equal inputs", selfJoin, false, gitlab,
			`SELECT l1.id FROM labels AS l1 INNER JOIN labels AS l2 ON l1.id = l2.id`,
			"", `SELECT l1.id FROM labels AS l1`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rs := []rules.Rule{c.rule}
			if c.library {
				rs = append(rules.All(), c.rule)
			}
			out, applied, _ := NewRewriter(rs, c.schema).Search(mustPlan(t, c.query, c.schema), Options{})
			got := plan.ToSQLString(out)
			fired := slices.ContainsFunc(applied, func(a Applied) bool { return a.RuleNo == c.rule.No })
			if c.wrong != "" && (fired || got == c.wrong) {
				t.Errorf("%s fired on bindings its equalities reject: %q -> %q by %v", c.rule.Name, c.query, got, applied)
			}
			if c.want != "" && (!fired || got != c.want) {
				t.Errorf("%q -> %q by %v; want %q by %s", c.query, got, applied, c.want, c.rule.Name)
			}
		})
	}
}
