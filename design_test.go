package wetune

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// DESIGN.md states the current design; its history lives in CHANGES.md.
// This test keeps the file short and keeps every reference into it valid.

// designMaxLines bounds DESIGN.md. A measurement log or a description of
// deleted code belongs in CHANGES.md, under the entry of its change.
const designMaxLines = 900

// designQuoting lists the documents whose quotes of DESIGN.md must resolve,
// besides every Go file. CHANGES.md is history and may quote titles that
// are gone.
var designQuoting = []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}

var (
	// A quote is DESIGN or DESIGN.md, an optional comma, then a quoted title.
	designQuoteRE = regexp.MustCompile(`DESIGN(?:\.md)?,?\s+"([^"]+)"`)
	deviationRE   = regexp.MustCompile(`(?i)\bdeviations?\s+(\d+)`)
	headingRE     = regexp.MustCompile(`^#+\s+(.+)$`)
	boldLeadRE    = regexp.MustCompile(`^(?:[-*]\s+|\d+\.\s+)?\*\*([^*]+)\*\*`)
	deviationItem = regexp.MustCompile(`^(\d+)\.\s+\*\*`)
	testNameRE    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	testFuncRE    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	commentRunRE  = regexp.MustCompile(`\n[ \t]*(?://[ \t]?)?`)
)

// sectionTitle reduces a heading or bold lead to the title a quote names:
// without a trailing parenthetical and without trailing punctuation.
func sectionTitle(s string) string {
	s = strings.TrimRight(s, ".: ")
	if i := strings.LastIndex(s, " ("); i > 0 && strings.HasSuffix(s, ")") {
		s = strings.TrimRight(s[:i], ".: ")
	}
	return strings.TrimSpace(s)
}

// readDesign returns DESIGN.md's text and lines, the titles of its headings
// and bold leads, and the numbers of its deviations in order.
func readDesign(t *testing.T) (text string, lines []string, titles map[string]bool, deviations []int) {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text = string(b)
	lines = strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	titles = map[string]bool{}
	inDeviations := false
	for _, l := range lines {
		if m := headingRE.FindStringSubmatch(l); m != nil {
			titles[sectionTitle(m[1])] = true
			inDeviations = strings.Contains(m[1], "deviations from the paper")
			continue
		}
		if m := boldLeadRE.FindStringSubmatch(l); m != nil {
			titles[sectionTitle(m[1])] = true
		}
		if m := deviationItem.FindStringSubmatch(l); inDeviations && m != nil {
			n, _ := strconv.Atoi(m[1])
			deviations = append(deviations, n)
		}
	}
	return text, lines, titles, deviations
}

// repoFiles returns the contents of the repository's files whose names end
// in suffix, by path, skipping hidden directories.
func repoFiles(t *testing.T, suffix string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(p, suffix) {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			files[p] = string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestDesignDocReferencesResolve(t *testing.T) {
	design, lines, titles, deviations := readDesign(t)
	if len(lines) > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, more than %d: it states the current design; move history and dated measurements to the CHANGES.md entry of their change",
			len(lines), designMaxLines)
	}
	if len(deviations) == 0 {
		t.Fatal("DESIGN.md lists no deviations from the paper")
	}
	for i, n := range deviations {
		if n != i+1 {
			t.Errorf("DESIGN.md deviations are numbered %v: want 1…%d with no gap", deviations, len(deviations))
			break
		}
	}

	// Every Go file and the listed documents may quote DESIGN.md; line
	// breaks, with the comment markers after them, fold to one space so a
	// quote may wrap.
	texts := repoFiles(t, ".go")
	for _, p := range designQuoting {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		texts[p] = string(b)
	}
	texts["DESIGN.md"] = design
	for p, s := range texts {
		s = commentRunRE.ReplaceAllString(s, " ")
		for _, m := range designQuoteRE.FindAllStringSubmatch(s, -1) {
			if !titles[sectionTitle(m[1])] {
				t.Errorf("%s quotes DESIGN.md %q, which is neither a heading nor a bold lead there", p, m[1])
			}
		}
		for _, m := range deviationRE.FindAllStringSubmatch(s, -1) {
			if n, _ := strconv.Atoi(m[1]); n < 1 || n > len(deviations) {
				t.Errorf("%s cites deviation %d; DESIGN.md has 1…%d", p, n, len(deviations))
			}
		}
	}
}

func TestDocsCiteExistingTests(t *testing.T) {
	funcs := map[string]bool{}
	for _, s := range repoFiles(t, "_test.go") {
		for _, m := range testFuncRE.FindAllStringSubmatch(s, -1) {
			funcs[m[1]] = true
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range testNameRE.FindAllString(string(b), -1) {
			if !funcs[name] {
				t.Errorf("%s cites %s, which is no func in any _test.go file", doc, name)
			}
		}
	}
}
