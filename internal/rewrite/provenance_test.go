package rewrite

import (
	"strings"
	"testing"

	"wetune/internal/obs/journal"
	"wetune/internal/plan"
)

// TestProvenanceMatchesSearch pins the explain contract: SearchProvenance
// must return exactly what Search returns (plan, applied chain, stats) —
// provenance only observes.
func TestProvenanceMatchesSearch(t *testing.T) {
	rw := newRW(t)
	schema := gitlabSchema()
	queries := []string{
		q0,
		`SELECT id FROM notes WHERE type = 'D' AND id IN (SELECT id FROM notes WHERE commit_id = 7)`,
		`SELECT issues.title FROM issues INNER JOIN projects ON issues.project_id = projects.id`,
		`SELECT DISTINCT id FROM labels WHERE project_id = 3`,
		`SELECT title FROM labels`,
	}
	for _, q := range queries {
		p := mustPlan(t, q, schema)
		out0, applied0, stats0 := rw.Search(p, Options{})
		prov := new(Provenance)
		out1, applied1, stats1 := rw.Search(p, Options{Provenance: prov})
		if plan.Fingerprint(out0) != plan.Fingerprint(out1) {
			t.Fatalf("%q: provenance run returned a different plan", q)
		}
		if stats0 != stats1 {
			t.Fatalf("%q: stats differ:\n  %+v\n  %+v", q, stats0, stats1)
		}
		if len(applied0) != len(applied1) {
			t.Fatalf("%q: applied chains differ: %v vs %v", q, applied0, applied1)
		}
		// The chosen-chain steps must be index-aligned with the applied chain
		// and cost-chained (each step starts where the previous ended).
		if len(prov.Steps) != len(applied1) {
			t.Fatalf("%q: %d provenance steps vs %d applied", q, len(prov.Steps), len(applied1))
		}
		for i, s := range prov.Steps {
			if s.RuleNo != applied1[i].RuleNo || s.RuleName != applied1[i].RuleName {
				t.Fatalf("%q step %d: %+v != applied %+v", q, i, s, applied1[i])
			}
		}
		if len(prov.Steps) > 0 {
			first, last := prov.Steps[0], prov.Steps[len(prov.Steps)-1]
			if first.CostBefore != stats1.InitialCost || first.SizeBefore != stats1.InitialSize {
				t.Fatalf("%q: first step starts at cost %v size %d, stats say %v %d",
					q, first.CostBefore, first.SizeBefore, stats1.InitialCost, stats1.InitialSize)
			}
			if last.CostAfter != stats1.FinalCost || last.SizeAfter != stats1.FinalSize {
				t.Fatalf("%q: last step ends at cost %v size %d, stats say %v %d",
					q, last.CostAfter, last.SizeAfter, stats1.FinalCost, stats1.FinalSize)
			}
			for i := 1; i < len(prov.Steps); i++ {
				if prov.Steps[i].CostBefore != prov.Steps[i-1].CostAfter {
					t.Fatalf("%q: step %d cost chain broken", q, i)
				}
			}
		}
	}
}

// TestProvenanceAccounting checks the node/candidate/why-not bookkeeping is
// internally consistent with the search stats.
func TestProvenanceAccounting(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	prov := new(Provenance)
	_, applied, stats := rw.Search(p, Options{Provenance: prov})
	if len(applied) == 0 {
		t.Fatal("q0 should be rewritten")
	}

	// Every enqueued candidate is a node; nodes = root + enqueued.
	enq, memo := 0, 0
	for _, c := range prov.Candidates {
		switch c.Fate {
		case CandEnqueued:
			enq++
			n := prov.Nodes[c.Node]
			if n.RuleNo != c.RuleNo || n.Size != c.Size || n.Cost != c.Cost {
				t.Fatalf("node %d disagrees with its candidate: %+v vs %+v", c.Node, n, c)
			}
		case CandMemoHit:
			memo++
		}
	}
	if len(prov.Nodes) != enq+1 {
		t.Fatalf("%d nodes, want %d enqueued + root", len(prov.Nodes), enq)
	}
	if memo != stats.MemoHits {
		t.Fatalf("%d memo-hit candidates, stats say %d", memo, stats.MemoHits)
	}

	// Expanded nodes match NodesExplored.
	expanded := 0
	for _, n := range prov.Nodes {
		if n.Fate == FateExpanded {
			expanded++
		}
	}
	if expanded != stats.NodesExplored {
		t.Fatalf("%d expanded nodes, stats say %d", expanded, stats.NodesExplored)
	}

	// The why-not funnel totals agree with the stats counters.
	var attempts, matchFailed, fired int
	for _, w := range prov.WhyNot {
		attempts += w.Attempts
		matchFailed += w.MatchFailed
		fired += w.Fired
	}
	if int64(attempts) != stats.RuleAttempts {
		t.Fatalf("why-not attempts %d, stats %d", attempts, stats.RuleAttempts)
	}
	if int64(attempts-matchFailed) != stats.RuleMatches {
		t.Fatalf("why-not matches %d, stats %d", attempts-matchFailed, stats.RuleMatches)
	}
	if fired != len(applied) {
		t.Fatalf("why-not fired %d, applied %d", fired, len(applied))
	}

	// Every rule of the index appears in the funnel exactly once.
	if len(prov.WhyNot) != rw.ruleIndex().Total() {
		t.Fatalf("%d why-not rows, index holds %d rules", len(prov.WhyNot), rw.ruleIndex().Total())
	}
	seen := map[int]bool{}
	for _, w := range prov.WhyNot {
		if seen[w.RuleNo] {
			t.Fatalf("rule %d appears twice in why-not", w.RuleNo)
		}
		seen[w.RuleNo] = true
	}
}

// TestProvenanceRendering smoke-tests the human renderings.
func TestProvenanceRendering(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	prov := new(Provenance)
	_, applied, _ := rw.Search(p, Options{Provenance: prov})
	tree := prov.RenderTree()
	if !strings.Contains(tree, "* input") {
		t.Fatalf("tree missing marked root:\n%s", tree)
	}
	steps := prov.RenderSteps()
	for _, a := range applied {
		if !strings.Contains(steps, a.RuleName) {
			t.Fatalf("steps missing applied rule %s:\n%s", a.RuleName, steps)
		}
		if !strings.Contains(tree, a.RuleName) {
			t.Fatalf("tree missing applied rule %s:\n%s", a.RuleName, tree)
		}
	}
	whynot := prov.RenderWhyNot()
	if !strings.Contains(whynot, "FIRED") {
		t.Fatalf("why-not missing fired rules:\n%s", whynot)
	}
	if len(strings.Split(strings.TrimSpace(whynot), "\n")) != len(prov.WhyNot) {
		t.Fatalf("why-not should render one line per rule:\n%s", whynot)
	}
}

// TestProvenanceFrontierDrop: states cut by the frontier budget are marked.
func TestProvenanceFrontierDrop(t *testing.T) {
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	prov := new(Provenance)
	_, _, stats := rw.Search(p, Options{maxFrontier: 1, Provenance: prov})
	if !stats.Truncated || stats.TruncatedBy != "frontier" {
		t.Skipf("q0 did not stress the frontier budget: %+v", stats)
	}
	dropped := 0
	for _, n := range prov.Nodes {
		if n.Fate == FateDropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("frontier-truncated search marked no node frontier-dropped")
	}
}

// TestSearchFeedsJournal: one search leaves an event trail in the default
// flight recorder — expansions, prune aggregates and candidate events.
func TestSearchFeedsJournal(t *testing.T) {
	j := journal.Default()
	before := j.Written()
	rw := newRW(t)
	p := mustPlan(t, q0, gitlabSchema())
	_, _, stats := rw.Search(p, Options{})
	if j.Written() == before {
		t.Fatal("search recorded no journal events")
	}
	kinds := map[journal.Kind]int{}
	for _, ev := range j.Snapshot() {
		if ev.Seq >= before {
			kinds[ev.Kind]++
		}
	}
	if kinds[journal.KindExpand] != stats.NodesExplored {
		t.Fatalf("journal has %d expand events, stats say %d nodes",
			kinds[journal.KindExpand], stats.NodesExplored)
	}
	if kinds[journal.KindRuleAttempt] != int(stats.RuleAttempts) {
		t.Fatalf("journal has %d attempt events, stats say %d",
			kinds[journal.KindRuleAttempt], stats.RuleAttempts)
	}
	if kinds[journal.KindCandidate] == 0 || kinds[journal.KindRulePruned] == 0 {
		t.Fatalf("journal missing candidate/prune events: %v", kinds)
	}
}
