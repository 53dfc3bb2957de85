package rewrite

import (
	"fmt"
	"sort"
	"strings"
)

// Provenance is the derivation record of one Search: the descent's chain of
// steps, every candidate of each step that it did not take with the reason
// why, and a per-rule why-not accounting. It answers "why was this query
// rewritten this way" and "why did rule N never apply" without re-running
// the search. Recording is opt-in: point Options.Provenance at a zero
// Provenance and Search fills it. Its why-not funnel sums to the search's
// Stats (the always-on record, flushed to the rewrite_* counters), so it is
// that record's per-rule breakdown, not a second one.
type Provenance struct {
	InitialSize int `json:"initial_size"`
	FinalSize   int `json:"final_size"`

	// Steps is the chain to the returned plan, index-aligned with the Applied
	// slice Search returns: same rules in the same order, plus the node path
	// and the plan size on each side of the step.
	Steps []ProvStep `json:"steps"`

	// Tail is the steps the descent took after the returned plan, none of
	// which reached a smaller one. Step i of the descent is Steps[i] for
	// i < len(Steps) and Tail[i-len(Steps)] after.
	Tail []ProvStep `json:"tail"`

	// Candidates is every candidate the matcher produced that the descent did
	// not step to, with its fate; Step is the index of the state it was
	// derived from (0: the input plan, i: the plan after descent step i).
	Candidates []ProvCandidate `json:"candidates"`

	// WhyNot aggregates per rule (every rule in the index, fired or not) how
	// far it got at each stage of the funnel.
	WhyNot []RuleWhyNot `json:"why_not"`

	whyNot map[int]*RuleWhyNot
}

// ProvStep is one step of the descent.
type ProvStep struct {
	RuleNo     int    `json:"rule"`
	RuleName   string `json:"name"`
	Path       []int  `json:"path"`
	SizeBefore int    `json:"size_before"`
	SizeAfter  int    `json:"size_after"`
}

// Candidate fates.
const (
	CandNotChosen = "not-chosen" // a better-ranked unvisited candidate was stepped to
	CandMemoHit   = "memo-hit"   // derived plan already visited
	CandNoOp      = "no-op"      // application left the plan fingerprint unchanged
	CandInvalid   = "invalid"    // whole-plan re-validation failed after splice
)

// ProvCandidate is one matcher-produced candidate the descent did not take,
// and its fate. Size is 0 for no-op and invalid candidates.
type ProvCandidate struct {
	Step     int    `json:"step"`
	RuleNo   int    `json:"rule"`
	RuleName string `json:"name"`
	Path     []int  `json:"path"`
	Size     int    `json:"size,omitempty"`
	Fate     string `json:"fate"`
}

// RuleWhyNot is the per-rule funnel: positions where the index or the shape
// precheck pruned the rule, matcher attempts and failures, candidates that
// were no-ops, invalid, already visited or outranked, steps the descent took
// with the rule, and steps on the chain to the returned plan. A rule with
// Fired == 0 did not contribute to this query; its last non-zero column
// before Fired names the furthest gate it passed.
type RuleWhyNot struct {
	RuleNo      int    `json:"rule"`
	RuleName    string `json:"name"`
	IndexPruned int    `json:"index_pruned"`
	ShapePruned int    `json:"shape_pruned"`
	Attempts    int    `json:"attempts"`
	MatchFailed int    `json:"match_failed"`
	NoOps       int    `json:"no_ops"`
	Invalid     int    `json:"invalid"`
	MemoDups    int    `json:"memo_dups"`
	NotChosen   int    `json:"not_chosen"`
	Chosen      int    `json:"chosen"`
	Fired       int    `json:"fired"`
}

// reset clears any earlier search's record and seeds the why-not table with
// every rule in the index.
func (p *Provenance) reset(idx *RuleIndex) {
	*p = Provenance{whyNot: map[int]*RuleWhyNot{}}
	for _, cr := range idx.Rules() {
		p.whyNot[cr.Rule.No] = &RuleWhyNot{RuleNo: cr.Rule.No, RuleName: cr.Rule.Name}
	}
}

func (p *Provenance) rule(no int) *RuleWhyNot {
	w, ok := p.whyNot[no]
	if !ok {
		w = &RuleWhyNot{RuleNo: no}
		p.whyNot[no] = w
	}
	return w
}

// noteIndexPruned charges one index-pruned position to every rule not in the
// position's root-kind bucket.
func (p *Provenance) noteIndexPruned(inBucket map[int]bool) {
	for no, w := range p.whyNot {
		if !inBucket[no] {
			w.IndexPruned++
		}
	}
}

// candidate records a ranked candidate of the state at step that the descent
// did not take: a memo hit or an outranked one.
func (p *Provenance) candidate(step int, c Candidate, size int, fate string) {
	w := p.rule(c.Rule.No)
	if fate == CandMemoHit {
		w.MemoDups++
	} else {
		w.NotChosen++
	}
	p.Candidates = append(p.Candidates, ProvCandidate{
		Step: step, RuleNo: c.Rule.No, RuleName: c.Rule.Name, Path: c.Path, Size: size, Fate: fate,
	})
}

// finish splits the descent's steps at the returned plan, kept steps in, and
// freezes the why-not map into the sorted WhyNot slice.
func (p *Provenance) finish(kept int) {
	p.Steps, p.Tail = p.Steps[:kept:kept], p.Steps[kept:]
	for _, s := range p.Steps {
		p.rule(s.RuleNo).Fired++
	}
	p.WhyNot = p.WhyNot[:0]
	for _, w := range p.whyNot {
		p.WhyNot = append(p.WhyNot, *w)
	}
	sort.Slice(p.WhyNot, func(i, j int) bool { return p.WhyNot[i].RuleNo < p.WhyNot[j].RuleNo })
}

// RenderSteps renders the descent, one line per step, each followed by the
// candidates of the plan it starts from that it did not take; steps after the
// returned plan are marked.
func (p *Provenance) RenderSteps() string {
	var b strings.Builder
	fmt.Fprintf(&b, "input  size %d\n", p.InitialSize)
	steps := append(p.Steps[:len(p.Steps):len(p.Steps)], p.Tail...)
	for i := 0; i <= len(steps); i++ {
		for _, c := range p.Candidates {
			if c.Step != i {
				continue
			}
			fmt.Fprintf(&b, "    %-10s rule %d (%s) at %v", c.Fate, c.RuleNo, c.RuleName, c.Path)
			if c.Size > 0 {
				fmt.Fprintf(&b, "  size %d", c.Size)
			}
			b.WriteByte('\n')
		}
		if i == len(steps) {
			break
		}
		s := steps[i]
		fmt.Fprintf(&b, "step %d: rule %d (%s) at %v  size %d -> %d", i+1, s.RuleNo, s.RuleName, s.Path, s.SizeBefore, s.SizeAfter)
		if i >= len(p.Steps) {
			b.WriteString("  [after the returned plan]")
		}
		b.WriteByte('\n')
	}
	if len(p.Steps) == 0 {
		b.WriteString("(no rule applied)\n")
	}
	return b.String()
}

// stage names the earliest funnel gate that stopped a rule that never fired.
func (w RuleWhyNot) stage() string {
	switch {
	case w.Chosen > 0:
		return "stepped to only after the returned plan"
	case w.NotChosen > 0:
		return "outranked by the candidate stepped to"
	case w.MemoDups > 0:
		return "derived only already-visited plans"
	case w.Invalid > 0:
		return "rewrites broke enclosing column references"
	case w.NoOps > 0:
		return "applications were no-ops"
	case w.MatchFailed > 0:
		return "matched shape but bindings failed"
	case w.ShapePruned > 0:
		return "shape precheck never passed"
	case w.IndexPruned > 0:
		return "no node with a matching root operator"
	}
	return "never reached any position"
}

// RenderWhyNot renders the per-rule funnel for rules that never fired,
// ordered by how far they got (furthest first), then rule number. Rules that
// fired are listed first as a summary line.
func (p *Provenance) RenderWhyNot() string {
	var fired, rest []RuleWhyNot
	for _, w := range p.WhyNot {
		if w.Fired > 0 {
			fired = append(fired, w)
		} else {
			rest = append(rest, w)
		}
	}
	rank := func(w RuleWhyNot) int {
		switch {
		case w.Chosen > 0:
			return 0
		case w.NotChosen > 0:
			return 1
		case w.MemoDups > 0:
			return 2
		case w.Invalid > 0:
			return 3
		case w.NoOps > 0:
			return 4
		case w.MatchFailed > 0:
			return 5
		case w.ShapePruned > 0:
			return 6
		case w.IndexPruned > 0:
			return 7
		}
		return 8
	}
	sort.SliceStable(rest, func(i, j int) bool {
		if rank(rest[i]) != rank(rest[j]) {
			return rank(rest[i]) < rank(rest[j])
		}
		return rest[i].RuleNo < rest[j].RuleNo
	})
	var b strings.Builder
	for _, w := range fired {
		fmt.Fprintf(&b, "rule %3d %-32s FIRED x%d (attempts=%d chosen=%d)\n",
			w.RuleNo, w.RuleName, w.Fired, w.Attempts, w.Chosen)
	}
	for _, w := range rest {
		fmt.Fprintf(&b, "rule %3d %-32s %s (index-pruned=%d shape-pruned=%d attempts=%d match-failed=%d no-ops=%d invalid=%d memo-dups=%d not-chosen=%d chosen=%d)\n",
			w.RuleNo, w.RuleName, w.stage(), w.IndexPruned, w.ShapePruned,
			w.Attempts, w.MatchFailed, w.NoOps, w.Invalid, w.MemoDups, w.NotChosen, w.Chosen)
	}
	return b.String()
}
