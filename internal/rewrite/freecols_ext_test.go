package rewrite_test

import (
	"strings"
	"testing"

	"wetune/internal/datagen"
	"wetune/internal/difftest"
	"wetune/internal/engine"
	"wetune/internal/plan"
	"wetune/internal/rewrite"
	"wetune/internal/rules"
)

// TestRewritesKeepEveryFreeColumnResolvable is the regression table of the
// rewrites that were invalid while the matcher, the substitutions and validate
// each knew a different subset of the expression kinds: a predicate that reads
// a table only through a CASE arm or a correlated subquery reference (R1–R4:
// rule 8 dropped the join and left the reference dangling), and references
// inside CASE or an embedded statement that a substitution (R5), an alias
// rename (R6) or a rename reaching into a correlated EXISTS (R7) did not
// follow. Every output must re-plan from its SQL text and be bag-equal to its
// input on the engine under a NULL-light and a NULL-heavy population. The
// string literals are datagen's (v0001, …), and R3/R4 compare loosely, so that
// every predicate selects rows.
func TestRewritesKeepEveryFreeColumnResolvable(t *testing.T) {
	const join = `SELECT issues.id FROM issues JOIN projects ON issues.project_id = projects.id WHERE `
	cases := []struct {
		name, sql string
		applied   bool   // whether any rule may fire
		contains  string // text the output must hold
	}{
		{"R1 case arm", join + `CASE WHEN projects.name = 'v0001' THEN 1 ELSE 0 END = 1`, false, "INNER JOIN projects"},
		{"R2 correlated exists", join + `EXISTS (SELECT 1 FROM labels WHERE labels.project_id = projects.id)`, false, "INNER JOIN projects"},
		{"R3 correlated scalar", join + `issues.id <= (SELECT MAX(labels.id) FROM labels WHERE labels.project_id = projects.id)`, false, "INNER JOIN projects"},
		{"R4 correlated in", join + `issues.project_id IN (SELECT labels.project_id FROM labels WHERE labels.project_id = projects.id)`, false, "INNER JOIN projects"},
		{"R5 substitution into case", `SELECT * FROM notes n1 WHERE n1.id IN (SELECT n2.id FROM notes n2 WHERE CASE WHEN n2.type = 'v0001' THEN 1 ELSE 0 END = 1)`,
			true, "WHERE CASE WHEN n1.type = 'v0001'"},
		{"R6 rename into case", `SELECT notes.type FROM notes WHERE notes.commit_id IN (SELECT notes.id FROM notes WHERE CASE WHEN notes.type = 'v0001' THEN 1 ELSE 0 END = 1)`,
			true, "CASE WHEN notes_w1.type = 'v0001'"},
		{"R7 rename into correlated exists", `SELECT notes.type FROM notes WHERE notes.commit_id IN (SELECT notes.id FROM notes WHERE EXISTS (SELECT 1 FROM labels WHERE labels.id = notes.commit_id))`,
			true, "labels.id = notes_w1.commit_id"},
	}
	schema := rewrite.GitlabSchema()
	rw := rewrite.NewRewriter(rules.All(), schema)
	var dbs []*engine.DB
	for _, nulls := range []float64{0.05, 0.6} {
		db := engine.NewDB(schema)
		if err := datagen.Populate(db, datagen.Options{Rows: 40, Seed: 7, NullFraction: nulls, DistinctValues: 4}); err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in, err := plan.BuildSQL(c.sql, schema)
			if err != nil {
				t.Fatal(err)
			}
			out, applied, _ := rw.Search(in, rewrite.Options{})
			text := plan.ToSQLString(out)
			if (len(applied) > 0) != c.applied || !strings.Contains(text, c.contains) {
				t.Errorf("applied %v, output %s\nwant applied=%v and %q in the output", applied, text, c.applied, c.contains)
			}
			replanned, err := plan.BuildSQL(text, schema)
			if err != nil {
				t.Fatalf("output does not re-plan: %v\n  %s", err, text)
			}
			for i, db := range dbs {
				want, err := db.Execute(in, nil)
				if err != nil {
					t.Fatalf("population %d: input: %v", i, err)
				}
				for _, p := range []plan.Node{out, replanned} {
					got, err := db.Execute(p, nil)
					if err != nil {
						t.Fatalf("population %d: output does not execute: %v\n  %s", i, err, text)
					}
					if !difftest.BagEqual(want.Rows, got.Rows) {
						t.Errorf("population %d: bags differ\n  %s\n%s", i, text, difftest.DiffBags(want.Rows, got.Rows))
					}
				}
				if len(want.Rows) == 0 && i == 0 {
					t.Errorf("population %d selects no row: the comparison is vacuous", i)
				}
			}
		})
	}
}
