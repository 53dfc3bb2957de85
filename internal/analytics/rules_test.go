package analytics

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRulesReport(t *testing.T) {
	rep := Rules(5) // small slice of each app corpus keeps the test quick
	if rep.Queries == 0 {
		t.Fatal("no plannable queries in the workload")
	}
	if rep.Rewritten == 0 {
		t.Fatal("no query was rewritten — the rule set should fire on this corpus")
	}
	if len(rep.Rules) == 0 {
		t.Fatal("report covers no rules")
	}

	// Internal consistency: every fired rule appears before every dead rule
	// (sorted by fires), wins never exceed fires, queries never exceed fires,
	// and the size-delta histogram has exactly one observation per fire.
	var fired, wins int64
	deadSet := map[int]bool{}
	for _, no := range rep.Dead {
		deadSet[no] = true
	}
	for _, s := range rep.Rules {
		fired += s.Fired
		wins += s.Wins
		if s.Wins > s.Fired {
			t.Fatalf("rule %d: %d wins > %d fires", s.RuleNo, s.Wins, s.Fired)
		}
		if s.Queries > s.Fired {
			t.Fatalf("rule %d: fired on %d queries but only %d times", s.RuleNo, s.Queries, s.Fired)
		}
		if s.SizeDelta.Count != s.Fired {
			t.Fatalf("rule %d: %d delta observations for %d fires", s.RuleNo, s.SizeDelta.Count, s.Fired)
		}
		if deadSet[s.RuleNo] != (s.Fired == 0) {
			t.Fatalf("rule %d: fired=%d but dead=%v", s.RuleNo, s.Fired, deadSet[s.RuleNo])
		}
		if s.Fired > s.Chosen {
			t.Fatalf("rule %d: %d fires but only %d steps chosen", s.RuleNo, s.Fired, s.Chosen)
		}
	}
	if fired == 0 {
		t.Fatal("no rule fired")
	}
	if wins == 0 {
		t.Fatal("no fire shrank a plan — the search should only rewrite when it helps")
	}

	// The registry saw the same run.
	if rep.RegistryDeltas["rewrite_rule_attempts"] <= 0 {
		t.Fatalf("registry deltas missing attempts: %v", rep.RegistryDeltas)
	}
	// The flight recorder saw it too (the ring may wrap, so only presence of
	// the high-volume kinds is guaranteed).
	if rep.Journal["expand"] == 0 || rep.Journal["candidate"] == 0 {
		t.Fatalf("journal events missing: %v", rep.Journal)
	}
}

func TestRulesReportRender(t *testing.T) {
	rep := Rules(3)
	out := rep.Render()
	for _, want := range []string{"rule effectiveness", "dead rules", "size-delta%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Every fired rule's name appears.
	for _, s := range rep.Rules {
		if s.Fired > 0 && !strings.Contains(out, s.RuleName) {
			t.Fatalf("render missing fired rule %s:\n%s", s.RuleName, out)
		}
	}
	// JSON round-trips.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Queries != rep.Queries || len(back.Rules) != len(rep.Rules) {
		t.Fatalf("JSON round-trip lost data: %d/%d queries, %d/%d rules",
			back.Queries, rep.Queries, len(back.Rules), len(rep.Rules))
	}
}

func TestDeltaHistBuckets(t *testing.T) {
	h := newDeltaHist()
	for _, pct := range []float64{0, 0.5, 3, 8, 20, 40, 90} {
		h.observe(pct)
	}
	want := []int64{1, 1, 1, 1, 1, 1, 1} // one per bucket incl. open tail
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Min != 0 || h.Max != 90 || h.Count != 7 {
		t.Fatalf("moments wrong: %+v", h)
	}
	if m := h.Mean(); m < 23 || m > 24 {
		t.Fatalf("mean %v out of range", m)
	}
	var empty DeltaHist
	if empty.Mean() != 0 {
		t.Fatal("empty histogram mean should be 0")
	}
}
