package pipeline

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/template"
)

// TestClosureGolden checks constraint.Closure on every start set of the
// size-2 run — each sourceVariants member of each tried pair's C* — against
// the closures recorded in testdata/size2_closures.golden.
func TestClosureGolden(t *testing.T) {
	f, err := os.Open("testdata/size2_closures.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var got []string
	ts := template.Enumerate(template.EnumOptions{MaxSize: 2})
	for _, src := range ts {
		for _, d := range ts {
			if !d.NotMoreOpsThan(src) {
				continue
			}
			dest := RenameApart(src, d)
			cstar := filterRefAttrs(constraint.Enumerate(src, dest), src, dest)
			if cstar.Len() > defaultMaxConstraints {
				continue
			}
			got = append(got, fmt.Sprintf("pair %s => %s", src, dest))
			for _, v := range sourceVariants(cstar, src, dest) {
				cl := constraint.Closure(v)
				got = append(got, fmt.Sprintf("%d %d %x", v.Len(), cl.Len(), sha256.Sum256([]byte(cl.Key()))))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d lines, golden has %d", len(got), len(want))
	}
	pair := ""
	for i := range got {
		if strings.HasPrefix(got[i], "pair ") {
			pair = got[i]
		}
		if got[i] != want[i] {
			t.Errorf("%s: line %d:\n  got  %s\n  want %s", pair, i+1, got[i], want[i])
		}
	}
}
