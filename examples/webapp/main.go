// Webapp: optimize an ORM-flavored workload end to end — generate data into
// the in-memory engine, rewrite the queries that mainstream rules miss, and
// measure the latency effect (the §8.3 experiment in miniature).
package main

import (
	"fmt"
	"time"

	"wetune"
)

func main() {
	schema := forumSchema()
	db := wetune.NewDatabase(schema)
	if err := wetune.Populate(db, wetune.PopulateOptions{
		Rows: 20000, Dist: wetune.Zipfian, Theta: 1.5, Seed: 7,
	}); err != nil {
		panic(err)
	}
	fmt.Println("populated topics/posts/users with 20k rows each (zipfian 1.5)")

	opt := wetune.NewOptimizer(wetune.BuiltinRules(), schema)

	queries := []string{
		// Duplicated IN-subquery (rule 4 / Figure 2).
		`SELECT * FROM topics WHERE id IN (SELECT id FROM topics WHERE category_id = 3)
		   AND id IN (SELECT id FROM topics WHERE category_id = 3)`,
		// Self IN-subquery on the key (the Table 1 q0/q3 shape).
		`SELECT * FROM topics WHERE id IN (SELECT id FROM topics WHERE views > 50)`,
		// FK join whose right side is never read (rule 7).
		`SELECT posts.like_count FROM posts INNER JOIN topics ON posts.topic_id = topics.id`,
		// LEFT JOIN against a unique key (rule 11).
		`SELECT posts.like_count FROM posts LEFT JOIN users ON posts.user_id = users.id`,
	}
	for _, q := range queries {
		p, err := opt.PlanSQL(q)
		if err != nil {
			panic(err)
		}
		better, applied := opt.Optimize(p)
		before := timeIt(db, p)
		after := timeIt(db, better)
		fmt.Printf("\nquery:     %s\n", q)
		fmt.Printf("rewritten: %s\n", wetune.PlanToSQL(better))
		fmt.Printf("rules:     %v\n", ruleNames(applied))
		fmt.Printf("latency:   %v -> %v (%.0f%% reduction)\n",
			before, after, 100*(1-float64(after)/float64(before)))
	}
}

func ruleNames(applied []wetune.Applied) []string {
	out := make([]string, len(applied))
	for i, a := range applied {
		out[i] = fmt.Sprintf("%d:%s", a.RuleNo, a.RuleName)
	}
	return out
}

func timeIt(db *wetune.DB, p wetune.Plan) time.Duration {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := wetune.Execute(db, p); err != nil {
			panic(err)
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

func forumSchema() *wetune.Schema {
	s := wetune.NewSchema()
	s.AddTable(&wetune.TableDef{
		Name: "users",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "username", Type: wetune.TString, NotNull: true},
		},
		PrimaryKey: []string{"id"},
		Uniques:    [][]string{{"username"}},
	})
	s.AddTable(&wetune.TableDef{
		Name: "topics",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "category_id", Type: wetune.TInt},
			{Name: "views", Type: wetune.TInt},
		},
		PrimaryKey: []string{"id"},
	})
	s.AddTable(&wetune.TableDef{
		Name: "posts",
		Columns: []wetune.Column{
			{Name: "id", Type: wetune.TInt, NotNull: true},
			{Name: "topic_id", Type: wetune.TInt, NotNull: true},
			{Name: "user_id", Type: wetune.TInt, NotNull: true},
			{Name: "like_count", Type: wetune.TInt},
		},
		PrimaryKey: []string{"id"},
		ForeignKeys: []wetune.ForeignKey{
			{Columns: []string{"topic_id"}, RefTable: "topics", RefColumns: []string{"id"}},
			{Columns: []string{"user_id"}, RefTable: "users", RefColumns: []string{"id"}},
		},
	})
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}
