// Casestudy: reproduce the paper's §8.4 walk-through — the rule sequence
// that turns Table 1's q3 into q4, with the search time, the rows the
// executor visits and the measured latency effect on a populated database
// (Figure 8).
package main

import (
	"fmt"
	"math/rand"
	"time"

	"wetune"
)

func main() {
	schema := wetune.NewSchema()
	schema.AddTable(&wetune.TableDef{
		Name: "notes",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "type", Type: wetune.TString},
			{Name: "commit_id", Type: wetune.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	if err := schema.Validate(); err != nil {
		panic(err)
	}

	// Load 100k synthetic notes.
	db := wetune.NewDatabase(schema)
	rng := rand.New(rand.NewSource(1))
	kinds := []string{"D", "C", "R"}
	for i := 1; i <= 100000; i++ {
		db.MustInsert("notes", wetune.Row{
			wetune.NewInt(int64(i)),
			wetune.NewString(kinds[rng.Intn(3)]),
			wetune.NewInt(int64(rng.Intn(10000))),
		})
	}

	q3 := `SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`

	opt := wetune.NewOptimizer(wetune.BuiltinRules(), schema)
	p, err := opt.PlanSQL(q3)
	if err != nil {
		panic(err)
	}

	// Phase 1: rewrite search (paper: 1.5s on their rule set).
	start := time.Now()
	best, applied := opt.Optimize(p)
	searchTime := time.Since(start)

	// Phase 2: rows visited, measured where the paper estimates a cost
	// (5.3s via SQL Server's estimator).
	rowsBefore := rowsVisited(db, p)
	rowsAfter := rowsVisited(db, best)

	// Phase 3: end-to-end latency (paper: 12s of SQL Server runs).
	latBefore := measure(db, p)
	latAfter := measure(db, best)

	fmt.Println("original: ", q3)
	fmt.Println("optimized:", wetune.PlanToSQL(best))
	fmt.Println("\nrule sequence (Figure 8):")
	for i, a := range applied {
		fmt.Printf("  step %d: rule %d (%s)\n", i+1, a.RuleNo, a.RuleName)
	}
	fmt.Printf("\nrewrite search:   %v\n", searchTime)
	fmt.Printf("rows visited:     %d -> %d\n", rowsBefore, rowsAfter)
	fmt.Printf("measured latency: %v -> %v  (%.1f%% reduction)\n",
		latBefore, latAfter, 100*(1-float64(latAfter)/float64(latBefore)))
}

// rowsVisited executes p once and returns the rows the executor visited.
func rowsVisited(db *wetune.DB, p wetune.Plan) int64 {
	before := db.Stats.RowsVisited
	if _, err := wetune.Execute(db, p); err != nil {
		panic(err)
	}
	return db.Stats.RowsVisited - before
}

func measure(db *wetune.DB, p wetune.Plan) time.Duration {
	var best time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := wetune.Execute(db, p); err != nil {
			panic(err)
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best
}
