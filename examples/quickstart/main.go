// Quickstart: define a schema, optimize an ORM-generated query, and verify a
// rewrite-rule with both verifiers.
package main

import (
	"fmt"

	"wetune"
)

func main() {
	// 1. A schema with the integrity constraints WeTune's rules exploit.
	schema := wetune.NewSchema()
	schema.AddTable(&wetune.TableDef{
		Name: "labels",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "title", Type: wetune.TString},
			{Name: "project_id", Type: wetune.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	if err := schema.Validate(); err != nil {
		panic(err)
	}

	// 2. The paper's motivating q0 (Table 1): an ORM-generated GitLab query
	// with a duplicated subquery and a useless ORDER BY.
	q0 := `SELECT * FROM labels WHERE id IN (
	         SELECT id FROM labels WHERE id IN (
	           SELECT id FROM labels WHERE project_id = 10
	         ) ORDER BY title ASC)`

	opt := wetune.NewOptimizer(wetune.BuiltinRules(), schema)
	res, err := opt.OptimizeSQLResult(q0)
	if err != nil {
		panic(err)
	}
	fmt.Println("original: ", q0)
	fmt.Println("rewritten:", res.Output)
	for _, a := range res.Applied {
		fmt.Printf("  applied rule %d (%s)\n", a.RuleNo, a.RuleName)
	}

	// 3. Verify one of the Table 7 rules with the built-in verifier.
	rule := wetune.Table7Rules()[3] // rule 4: redundant IN-subquery (Figure 2)
	fmt.Printf("\nrule %d (%s): %v by the built-in verifier\n",
		rule.No, rule.Name, wetune.VerifyRule(rule))

	// 4. Prove two concrete queries equivalent.
	outcome, err := wetune.VerifySQLPair(
		"SELECT * FROM labels WHERE project_id = 1 AND title = 'bug'",
		"SELECT * FROM labels WHERE title = 'bug' AND project_id = 1",
		schema)
	if err != nil {
		panic(err)
	}
	fmt.Println("conjunct-reorder pair:", outcome)
}
