package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"wetune/internal/sql"
)

// deadlineSlack is how many times its deadline a request may take to be
// answered: the search looks at the clock before every rule attempt, and
// what runs outside it (parse, plan, print) is linear in a body of bounded
// size.
const deadlineSlack = 4

// wideAnd returns a query over labels and k self-joins of it under a WHERE
// of n conjuncts "id = 1 AND … AND id = 2", each of which becomes one Sel
// operator. Each Sel above its twin is a candidate for the search, which
// validates every candidate against the whole plan, at a cost that grows
// with the plan's size and, through the joins' output columns, with k.
func wideAnd(n, k int) string {
	from := "labels l0"
	for j := 1; j <= k; j++ {
		from += fmt.Sprintf(" JOIN labels l%d ON l%d.id = l%d.id", j, j-1, j)
	}
	conj := make([]string, n)
	for i := range conj {
		conj[i] = "l0.id = 1"
	}
	conj[n-1] = "l0.id = 2"
	return "SELECT * FROM " + from + " WHERE " + strings.Join(conj, " AND ")
}

// TestWideConjunctionAnswersInTime: a plan of 2,000 operators, whose search
// once held a worker for over a minute, is refused as invalid SQL at once
// (sql.MaxTokens; plan.MaxNodes would refuse it next), and a plan just under the bound answers within
// deadlineSlack times a 50ms timeout_ms: the search looks at the clock before
// every candidate, not only before every expansion. One expansion of the
// plan with joins, 174 conjuncts over 16 of them, takes about 600ms on a
// 2-vCPU machine.
func TestWideConjunctionAnswersInTime(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	start := time.Now()
	rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql":"`+wideAnd(2000, 0)+`"}`)
	took := time.Since(start)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("2,000 conjuncts: status = %d, want 422; body: %.300s", rec.Code, rec.Body)
	}
	if e := decodeError(t, rec.Body.String()); e.Code != codeInvalidSQL {
		t.Fatalf("2,000 conjuncts: error = %+v, want %s", e, codeInvalidSQL)
	}
	// Timing is meaningless under the race detector's slowdown.
	if !raceEnabled && took > 100*time.Millisecond {
		t.Errorf("2,000 conjuncts took %v to refuse, want < 100ms", took)
	}

	const timeout = 50 * time.Millisecond
	for _, k := range []int{0, 16} {
		body := `{"sql":"` + wideAnd(190-k, k) + `","timeout_ms":50}`
		start = time.Now()
		rec = do(s, http.MethodPost, "/v1/rewrite", body)
		took = time.Since(start)
		if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%d joins: status = %d, want 200 or 504; body: %.300s", k, rec.Code, rec.Body)
		}
		if !raceEnabled && took > deadlineSlack*timeout {
			t.Errorf("%d joins under timeout_ms 50 took %v, want < %v", k, took, deadlineSlack*timeout)
		}
	}
}

// FuzzHandleRewrite posts arbitrary bytes to /v1/rewrite on a server whose
// requests all run under a 50ms deadline, the seeds' timeout_ms: the handler
// never answers 500, answers within deadlineSlack times the deadline, and
// goes on serving a plain query.
func FuzzHandleRewrite(f *testing.F) {
	const timeout = 50 * time.Millisecond
	const where = "SELECT * FROM users WHERE "
	const inSub = "id IN (SELECT id FROM labels WHERE "
	for _, sql := range []string{
		wideAnd(2000, 0),
		wideAnd(190, 0),
		wideAnd(174, 16),
		// TestDeepNestingAnswers422's shapes, nested 1,000 levels: past
		// sql.MaxNesting, in inputs small enough for the mutator.
		where + strings.Repeat("(", 1000) + "id = 1" + strings.Repeat(")", 1000),
		where + strings.Repeat("NOT ", 1000) + "id = 1",
		where + "id = " + strings.Repeat("- ", 1000) + "1",
		where + strings.Repeat(inSub, 1000) + "id = 1" + strings.Repeat(")", 1000),
		"SELECT * FROM " + strings.Repeat("(", 1000) + "labels" + strings.Repeat(")", 1000),
		// Past sql.MaxTokens: the lexer stops at the first token over it.
		where + strings.Repeat("id = 1 AND ", sql.MaxTokens/4) + "id = 1",
	} {
		f.Add(`{"sql":"` + sql + `","timeout_ms":50}`)
	}
	s, _, _ := newTestServer(f, func(c *Config) { c.RequestTimeout = timeout })
	f.Fuzz(func(t *testing.T, body string) {
		start := time.Now()
		rec := do(s, http.MethodPost, "/v1/rewrite", body)
		took := time.Since(start)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("status 500 for %.300q: %.300s", body, rec.Body)
		}
		if !raceEnabled && took > deadlineSlack*timeout {
			t.Errorf("%d-byte body took %v, want < %v", len(body), took, deadlineSlack*timeout)
		}
		if rec := do(s, http.MethodPost, "/v1/rewrite", `{"sql":"SELECT id FROM labels"}`); rec.Code != http.StatusOK {
			t.Fatalf("after %.300q: status = %d, want 200; body: %s", body, rec.Code, rec.Body)
		}
	})
}
