package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"wetune/internal/sql"
)

// TestDeepNestingAnswers422 sends statements nested far beyond
// sql.MaxNesting. Before the parser bounded its recursion the first of them,
// a body under the 1 MiB cap holding 510,000 parentheses each way, overflowed
// the goroutine stack: a fatal error that no recover sees, so it killed the
// daemon. Each must answer 422 with the position of a token inside the first
// MaxNesting+1 levels, and the handler must go on serving.
func TestDeepNestingAnswers422(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	const where = "SELECT * FROM users WHERE "
	const inSub = "id IN (SELECT id FROM labels WHERE "
	for _, c := range []struct {
		name   string
		prefix string // the text before the nesting starts
		nested string // the nesting and what closes it
		level  int    // bytes per nesting level
	}{
		{"parentheses", where, strings.Repeat("(", 510000) + "id = 1" + strings.Repeat(")", 510000), 1},
		{"NOT", where, strings.Repeat("NOT ", 10000) + "id = 1", len("NOT ")},
		{"unary minus", where + "id = ", strings.Repeat("- ", 10000) + "1", len("- ")},
		{"IN subqueries", where, strings.Repeat(inSub, 1000) + "id = 1" + strings.Repeat(")", 1000), len(inSub)},
		{"parenthesised joins", "SELECT * FROM ", strings.Repeat("(", 10000) + "labels" + strings.Repeat(")", 10000), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := `{"sql":"` + c.prefix + c.nested + `"}`
			if len(body) > 1<<20 {
				t.Fatalf("body of %d bytes is over the default 1 MiB cap", len(body))
			}
			start := time.Now()
			rec := do(s, http.MethodPost, "/v1/rewrite", body)
			took := time.Since(start)
			if rec.Code != http.StatusUnprocessableEntity {
				t.Fatalf("status = %d, want 422; body: %.300s", rec.Code, rec.Body)
			}
			e := decodeError(t, rec.Body.String())
			if e.Code != codeInvalidSQL || e.Position == nil {
				t.Fatalf("error = %+v, want %s with a position", e, codeInvalidSQL)
			}
			if lo, hi := len(c.prefix), len(c.prefix)+(sql.MaxNesting+1)*c.level; *e.Position < lo || *e.Position > hi {
				t.Errorf("position %d, want within the first %d levels: [%d, %d]", *e.Position, sql.MaxNesting+1, lo, hi)
			}
			// Timing is meaningless under the race detector's slowdown.
			if !raceEnabled && len(body) > 1000000 && took > 50*time.Millisecond {
				t.Errorf("a %d-byte body took %v to refuse, want < 50ms", len(body), took)
			}
		})
	}
	if rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql": "SELECT id FROM labels"}`); rec.Code != http.StatusOK {
		t.Fatalf("after the deep requests: status = %d, want 200; body: %s", rec.Code, rec.Body)
	}
}
