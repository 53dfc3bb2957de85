package difftest

import (
	"errors"
	"math/rand"
	"testing"

	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/sql"
)

// FuzzRewriteRoundTrip is the native-fuzzing entry point of the differential
// oracle: each input seed drives one runIteration — draw, populate, compare
// every single-step rewrite candidate and the full search's plan under bag
// semantics — over the whole rule library. Run bounded in CI
// (`go test -fuzz=FuzzRewriteRoundTrip -fuzztime=20s ./internal/difftest/`);
// the coverage-guided mutator explores seeds that reach unusual schema/plan
// shapes.
func FuzzRewriteRoundTrip(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42, 12345, -1, 1 << 40} {
		f.Add(seed)
	}
	ruleSet := rules.All()
	f.Fuzz(func(t *testing.T, seed int64) {
		variant := int(uint64(seed) % uint64(len(dataVariants)))
		mismatches, _, err := runIteration(seed, variant, ruleSet, 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mismatches {
			t.Errorf("rule %d (%s): %s\nrepro: %s", m.RuleNo, m.RuleName, m.Diff, m.Repro.Summary())
		}
	})
}

// FuzzParserPrinter checks that formatting is a fixed point of parsing: any
// query the parser accepts must re-parse from its formatted form to the same
// formatted text. A query the parser rejects must be rejected with a
// *sql.ParseError, which carries the offset; nothing else is checked of it.
func FuzzParserPrinter(f *testing.F) {
	f.Add("SELECT * FROM t0")
	f.Add("SELECT a, b FROM t WHERE a = 1 AND b IS NOT NULL ORDER BY a DESC LIMIT 3")
	f.Add("SELECT DISTINCT x.id FROM x INNER JOIN y ON x.id = y.x_id WHERE y.v IN (1, 2, 3)")
	f.Add("SELECT t.a FROM t WHERE t.a IN (SELECT u.a FROM u WHERE u.b > 0)")
	f.Add("SELECT COUNT(*) AS n, SUM(t.v) FROM t GROUP BY t.k HAVING COUNT(*) > 1")
	f.Add("SELECT a FROM t UNION ALL SELECT a FROM u")
	// The shapes the rewriter once broke (CASE arms, correlated EXISTS, scalar
	// and IN subqueries, a subquery under a self-named table).
	const join = "SELECT issues.id FROM issues JOIN projects ON issues.project_id = projects.id WHERE "
	f.Add(join + "CASE WHEN projects.name = 'x' THEN 1 ELSE 0 END = 1")
	f.Add(join + "EXISTS (SELECT 1 FROM labels WHERE labels.project_id = projects.id)")
	f.Add(join + "issues.id = (SELECT MAX(labels.id) FROM labels WHERE labels.project_id = projects.id)")
	f.Add(join + "issues.id IN (SELECT labels.id FROM labels WHERE labels.project_id = projects.id)")
	f.Add("SELECT * FROM notes n1 WHERE n1.id IN (SELECT n2.id FROM notes n2 WHERE CASE WHEN n2.type = 'a' THEN 1 ELSE 0 END = 1)")
	f.Add("SELECT notes.type FROM notes WHERE notes.commit_id IN (SELECT notes.id FROM notes WHERE CASE WHEN notes.type = 'a' THEN 1 ELSE 0 END = 1)")
	// Pull extra corpus entries from the plan generator so join/derived-table
	// shapes the grammar supports are represented.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		schema := GenSchema(rng)
		f.Add(plan.ToSQLString(GenPlan(rng, schema)))
	}
	// Identifiers the printer must quote, and lexer errors.
	f.Add(`SELECT "a b" FROM t`)
	f.Add(`SELECT "select" FROM t`)
	f.Add("SELECT \xdc()")
	f.Add("SELECT 'abc")
	f.Add("SELECT 'it''s'")
	f.Add("SELECT * FROM t WHERE a = -9223372036854775808")
	f.Fuzz(func(t *testing.T, query string) {
		stmt, err := sql.Parse(query)
		if err != nil {
			var pe *sql.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q) failed without a position: %v", query, err)
			}
			return
		}
		formatted := sql.Format(stmt)
		stmt2, err := sql.Parse(formatted)
		if err != nil {
			t.Fatalf("formatted output does not re-parse: %v\n  input:     %q\n  formatted: %q",
				err, query, formatted)
		}
		if again := sql.Format(stmt2); again != formatted {
			t.Fatalf("format is not a fixed point:\n  first:  %q\n  second: %q", formatted, again)
		}
	})
}
