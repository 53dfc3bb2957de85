package rewrite

import "testing"

// TestProvablyEquivalent covers Reduce's proof branch directly: reducing the
// rule library, or the library plus the size-2 rules, never reaches it.
func TestProvablyEquivalent(t *testing.T) {
	s := gitlabSchema()
	for _, c := range []struct {
		a, b string
		want bool
	}{
		// Different shapes, same result: the redundant IN-subquery and the
		// join the foreign key makes lossless.
		{"SELECT * FROM labels WHERE id IN (SELECT id FROM labels WHERE project_id = 10) AND project_id = 10",
			"SELECT * FROM labels WHERE project_id = 10", true},
		{"SELECT issues.id FROM issues JOIN projects ON issues.project_id = projects.id",
			"SELECT issues.id FROM issues", true},
		// The same shape under different predicates.
		{"SELECT id FROM labels WHERE project_id = 1", "SELECT id FROM labels WHERE project_id = 2", false},
		{"SELECT id FROM labels WHERE project_id = 1", "SELECT id FROM labels WHERE title = 'a'", false},
	} {
		if got := provablyEquivalent(mustPlan(t, c.a, s), mustPlan(t, c.b, s), s); got != c.want {
			t.Errorf("provablyEquivalent(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
