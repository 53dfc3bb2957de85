package verify

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/smt"
	"wetune/internal/template"
)

// goldenCall is one row of testdata/size2_proofs.golden.
type goldenCall struct {
	line    int
	items   []int // indexes into constraint.Enumerate(src, dest).Items()
	outcome string
	method  string
	stats   smt.Stats
}

type goldenPair struct {
	name  string
	calls []goldenCall
}

func readProofGolden(t *testing.T) []goldenPair {
	t.Helper()
	f, err := os.Open("testdata/size2_proofs.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pairs []goldenPair
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if name, ok := strings.CutPrefix(text, "pair "); ok {
			pairs = append(pairs, goldenPair{name: name})
			continue
		}
		set, result, ok := strings.Cut(text, " | ")
		if !ok || len(pairs) == 0 {
			t.Fatalf("golden line %d: malformed", line)
		}
		c := goldenCall{line: line}
		for _, s := range strings.FieldsFunc(set, func(r rune) bool { return r == ',' }) {
			i, err := strconv.Atoi(s)
			if err != nil {
				t.Fatalf("golden line %d: %v", line, err)
			}
			c.items = append(c.items, i)
		}
		st := &c.stats
		if _, err := fmt.Sscan(result, &c.outcome, &c.method,
			&st.Nodes, &st.Instances, &st.Atoms, &st.Decisions, &st.Backtracks); err != nil {
			t.Fatalf("golden line %d: %v", line, err)
		}
		p := &pairs[len(pairs)-1]
		p.calls = append(p.calls, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pairs
}

// TestSize2ProofSearchGolden replays every prover call of the size-2
// discovery run through one PairContext per pair, with the options of
// pipeline.DefaultPairProver, and requires the recorded outcome, method and
// solver effort exactly: the table is the proof that a solver change kept
// the search tree. No call may stop on the wall clock — the table was
// recorded without a deadline, so a clock-caused Unknown would make verdicts
// depend on the machine. (Under the race detector's slowdown the deadline is
// lifted instead of asserted. This file sorts before the fuzzed differential
// test, whose abandoned pathological cases keep burning CPU in the
// background — the clock assertion needs the machine to itself.)
//
// -short replays the calls under 2000 nodes and the first five that exhaust
// the node budget; the others only prepare their closure, so later calls
// find the context in the recorded state.
func TestSize2ProofSearchGolden(t *testing.T) {
	byName := map[string][2]*template.Node{}
	ts := template.Enumerate(template.EnumOptions{MaxSize: 2})
	for _, src := range ts {
		for _, dest := range ts {
			if dest.NotMoreOpsThan(src) {
				renamed := template.RenameApart(src, dest)
				byName[src.String()+" => "+renamed.String()] = [2]*template.Node{src, renamed}
			}
		}
	}
	opts := DefaultOptions()
	opts.SMT.MaxNodes = 20000
	if raceEnabled {
		opts.SMT.Deadline = 0
	}
	calls, exhausted := 0, 0
	for _, gp := range readProofGolden(t) {
		p, ok := byName[gp.name]
		if !ok {
			t.Fatalf("golden pair %q is not a size-2 pair", gp.name)
		}
		pc := NewPairContext(p[0], p[1])
		cstar := constraint.Enumerate(p[0], p[1]).Items()
		for _, gc := range gp.calls {
			items := make([]constraint.C, len(gc.items))
			for i, idx := range gc.items {
				items[i] = cstar[idx]
			}
			cs := constraint.NewSet(items...)
			o := opts
			if testing.Short() && gc.stats.Nodes >= 2000 {
				overBudget := gc.stats.Nodes > opts.SMT.MaxNodes
				if overBudget {
					exhausted++
				}
				if !overBudget || exhausted > 5 {
					o.SkipSMT = true
					pc.VerifyOpts(cs, o)
					continue
				}
			}
			calls++
			rep := pc.VerifyOpts(cs, o)
			got := rep.Stats
			if got.TimedOut {
				t.Errorf("golden line %d (%s): stopped on the clock after %d nodes", gc.line, gp.name, got.Nodes)
			}
			got.TimedOut = false
			if rep.Outcome.String() != gc.outcome || rep.Method.String() != gc.method || got != gc.stats {
				t.Errorf("golden line %d (%s):\n  want %s/%s %+v\n  got  %s/%s %+v",
					gc.line, gp.name, gc.outcome, gc.method, gc.stats, rep.Outcome, rep.Method, got)
			}
		}
	}
	if !testing.Short() && calls != 1523 {
		t.Errorf("replayed %d calls, want 1523", calls)
	}
}
