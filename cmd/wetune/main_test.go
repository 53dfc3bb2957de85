package main

import (
	"os"
	"strings"
	"testing"

	"wetune/internal/sql"
)

// runQuiet invokes run with stdout and stderr redirected, returning the exit
// code and captured stdout. The CLI never calls os.Exit below main, so the
// whole exit-code table is testable in-process.
func runQuiet(t *testing.T, args ...string) (code int, stdout string) {
	t.Helper()
	readOut, writeOut, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = writeOut, devNull
	outc := make(chan string, 1)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := readOut.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		outc <- b.String()
	}()
	defer func() {
		os.Stdout, os.Stderr = oldOut, oldErr
		devNull.Close()
	}()
	code = run(args)
	writeOut.Close()
	stdout = <-outc
	readOut.Close()
	return code, stdout
}

// TestExitCodes pins the documented exit-code table: 0 success, 1 runtime
// error, 2 usage error, 3 success-with-truncation — distinct, so scripts can
// tell "the rewrite failed" from "a budget cut the search".
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no subcommand", nil, exitUsage},
		{"unknown subcommand", []string{"bogus"}, exitUsage},
		{"rewrite without -q", []string{"rewrite"}, exitUsage},
		{"rewrite bad flag", []string{"rewrite", "-no-such-flag"}, exitUsage},
		{"rewrite bad SQL", []string{"rewrite", "-q", "SELECT FROM"}, exitError},
		{"rewrite over the token bound", []string{"rewrite", "-q", "SELECT id FROM labels WHERE " + strings.Repeat("id = 1 AND ", sql.MaxTokens/4) + "id = 1"}, exitError},
		{"rewrite ok", []string{"rewrite", "-q", "SELECT DISTINCT id FROM labels"}, exitOK},
		{"rewrite ok json", []string{"rewrite", "-q", "SELECT DISTINCT id FROM labels", "-json"}, exitOK},
		{"rewrite expired deadline", []string{"rewrite", "-q", "SELECT DISTINCT id FROM labels", "-deadline", "1ns"}, exitTruncated},
		{"rewrite expired deadline json", []string{"rewrite", "-q", "SELECT DISTINCT id FROM labels", "-deadline", "1ns", "-json"}, exitTruncated},
		{"explain without -q", []string{"explain"}, exitUsage},
		{"explain bad SQL", []string{"explain", "-q", "SELECT FROM"}, exitError},
		{"explain ok", []string{"explain", "-q", "SELECT DISTINCT id FROM labels"}, exitOK},
		{"bench unknown experiment", []string{"bench", "bogus"}, exitUsage},
		{"bench discover is no experiment", []string{"bench", "discover"}, exitUsage},
		{"bench rewrite is no experiment", []string{"bench", "rewrite"}, exitUsage},
		{"report unknown report", []string{"report", "bogus"}, exitUsage},
		{"report without name", []string{"report"}, exitUsage},
		{"fuzz replay missing file", []string{"fuzz", "-replay", "/nonexistent/repro.json"}, exitError},
		{"serve bad flag", []string{"serve", "-no-such-flag"}, exitUsage},
		{"loadtest bad flag", []string{"loadtest", "-no-such-flag"}, exitUsage},
		{"loadtest has no -chaos", []string{"loadtest", "-chaos"}, exitUsage},
		{"loadtest has no -compare", []string{"loadtest", "-compare", "x"}, exitUsage},
		{"loadtest inprocess ok", []string{"loadtest", "-inprocess", "-n", "1", "-c", "1", "-d", "5s"}, exitOK},
		{"soak has no -inprocess", []string{"soak", "-inprocess"}, exitUsage},
		{"soak bad flag", []string{"soak", "-no-such-flag"}, exitUsage},
		{"discover bad prover", []string{"discover", "-prover", "bogus"}, exitUsage},
		{"discover ok", []string{"discover", "-size", "1", "-prover", "algebraic"}, exitOK},
		{"discover cut by budget", []string{"discover", "-size", "2", "-budget", "1ns"}, exitTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := runQuiet(t, tc.args...)
			if code != tc.want {
				t.Errorf("run(%v) = %d, want %d", tc.args, code, tc.want)
			}
		})
	}
}

// TestDiscoverCutSaysSo: a discovery its budget cut prints which budget did
// and how many pairs went unsearched, as a truncated rewrite names its budget.
func TestDiscoverCutSaysSo(t *testing.T) {
	code, out := runQuiet(t, "discover", "-size", "2", "-budget", "1ns")
	if code != exitTruncated {
		t.Fatalf("code = %d, want %d", code, exitTruncated)
	}
	if !strings.Contains(out, "(discovery cut by 1ns -budget: 250 pairs unsearched;") {
		t.Errorf("cut discovery did not say so:\n%s", out)
	}
}

// TestRewriteDeadlineOutputStillCorrect checks exit 3 semantics: the output
// is still correct SQL (the best plan found — at worst the input), not an
// error message.
func TestRewriteDeadlineOutputStillCorrect(t *testing.T) {
	code, out := runQuiet(t, "rewrite", "-q", "SELECT DISTINCT id FROM labels", "-deadline", "1ns")
	if code != exitTruncated {
		t.Fatalf("code = %d, want %d", code, exitTruncated)
	}
	if !strings.Contains(out, "rewritten:") {
		t.Errorf("truncated rewrite printed no result:\n%s", out)
	}
	if !strings.Contains(out, "truncated by deadline") {
		t.Errorf("truncated rewrite did not say which budget fired:\n%s", out)
	}
}

// TestRewriteJSONShape spot-checks the machine-readable envelope the serve
// endpoints reuse.
func TestRewriteJSONShape(t *testing.T) {
	code, out := runQuiet(t, "rewrite", "-q", "SELECT DISTINCT id FROM labels", "-json")
	if code != exitOK {
		t.Fatalf("code = %d, want 0", code)
	}
	for _, field := range []string{`"input"`, `"output"`, `"applied"`, `"cost_before"`, `"cost_after"`, `"stats"`, `"result_cache"`} {
		if !strings.Contains(out, field) {
			t.Errorf("JSON output missing %s:\n%s", field, out)
		}
	}
}
