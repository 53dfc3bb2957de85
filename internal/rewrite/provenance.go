package rewrite

import (
	"fmt"
	"sort"
	"strings"
)

// Provenance is the full derivation record of one Search: every explored
// state, every candidate with the reason it did or did not survive, the
// chosen step chain with per-step costs, and a per-rule why-not accounting.
// It answers "why was this query rewritten this way" and "why did rule N
// never apply" without re-running the search. Recording is opt-in: point
// Options.Provenance at a zero Provenance and Search fills it; the always-on
// flight recorder captures the cheap aggregate trail instead.
type Provenance struct {
	InitialSize int     `json:"initial_size"`
	InitialCost float64 `json:"initial_cost"`
	FinalSize   int     `json:"final_size"`
	FinalCost   float64 `json:"final_cost"`

	// Steps is the chosen derivation chain, index-aligned with the Applied
	// slice Search returns: same rules in the same order, plus the node path
	// and the size/cost on each side of the step.
	Steps []ProvStep `json:"steps"`

	// Nodes are the search states in creation order; Nodes[0] is the input
	// plan (after ORDER BY elimination).
	Nodes []ProvNode `json:"nodes"`

	// Candidates is the rejected-candidate accounting: every candidate the
	// matcher produced, with its fate.
	Candidates []ProvCandidate `json:"candidates"`

	// WhyNot aggregates per rule (every rule in the index, fired or not) how
	// far it got at each stage of the funnel.
	WhyNot []RuleWhyNot `json:"why_not"`

	whyNot map[int]*RuleWhyNot
}

// ProvStep is one step of the chosen derivation chain.
type ProvStep struct {
	RuleNo     int     `json:"rule"`
	RuleName   string  `json:"name"`
	Path       []int   `json:"path"`
	SizeBefore int     `json:"size_before"`
	SizeAfter  int     `json:"size_after"`
	CostBefore float64 `json:"cost_before"`
	CostAfter  float64 `json:"cost_after"`
}

// Node fates.
const (
	FateExpanded    = "expanded"         // popped and expanded
	FatePending     = "pending"          // still on the frontier when search ended
	FateDropped     = "frontier-dropped" // cut by the frontier budget
	FateStepsBudget = "steps-budget"     // popped but at the step limit
)

// ProvNode is one search state.
type ProvNode struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for the root
	RuleNo   int     `json:"rule"`   // rule that derived it (-1 for the root)
	RuleName string  `json:"name,omitempty"`
	Path     []int   `json:"path,omitempty"`
	Depth    int     `json:"depth"`
	Size     int     `json:"size"`
	Cost     float64 `json:"cost"`
	Fate     string  `json:"fate"`
	Best     bool    `json:"best,omitempty"` // on the chosen derivation chain
}

// Candidate fates.
const (
	CandEnqueued = "enqueued" // became a search node
	CandMemoHit  = "memo-hit" // derived plan already visited
	CandNoOp     = "no-op"    // application left the plan fingerprint unchanged
	CandInvalid  = "invalid"  // whole-plan re-validation failed after splice
)

// ProvCandidate is one matcher-produced candidate and its fate.
type ProvCandidate struct {
	FromNode int     `json:"from"`
	RuleNo   int     `json:"rule"`
	RuleName string  `json:"name"`
	Path     []int   `json:"path"`
	Size     int     `json:"size,omitempty"`
	Cost     float64 `json:"cost,omitempty"`
	Fate     string  `json:"fate"`
	Node     int     `json:"node"` // node ID when enqueued, else -1
}

// RuleWhyNot is the per-rule funnel: positions where the index or the shape
// precheck pruned the rule, matcher attempts and failures, candidates that
// were no-ops/invalid/already-visited, candidates enqueued, and steps on the
// chosen chain. A rule with Fired == 0 did not contribute to this query; the
// first non-zero column walking left to right names the earliest gate that
// stopped it.
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
	Enqueued    int    `json:"enqueued"`
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

// finish freezes the why-not map into the sorted WhyNot slice and marks the
// chosen chain: best is the final node's ID, parents are followed to the
// root, and Steps is rebuilt from the marked nodes.
func (p *Provenance) finish(best int) {
	chain := []int{}
	for id := best; id > 0; id = p.Nodes[id].Parent {
		p.Nodes[id].Best = true
		chain = append(chain, id)
	}
	p.Nodes[0].Best = true
	for i := len(chain) - 1; i >= 0; i-- {
		n := p.Nodes[chain[i]]
		parent := p.Nodes[n.Parent]
		p.Steps = append(p.Steps, ProvStep{
			RuleNo:     n.RuleNo,
			RuleName:   n.RuleName,
			Path:       n.Path,
			SizeBefore: parent.Size,
			SizeAfter:  n.Size,
			CostBefore: parent.Cost,
			CostAfter:  n.Cost,
		})
		p.rule(n.RuleNo).Fired++
	}
	p.WhyNot = p.WhyNot[:0]
	for _, w := range p.whyNot {
		p.WhyNot = append(p.WhyNot, *w)
	}
	sort.Slice(p.WhyNot, func(i, j int) bool { return p.WhyNot[i].RuleNo < p.WhyNot[j].RuleNo })
}

// RenderTree renders the explored search graph as an indented tree, the
// chosen derivation path marked with '*' and each node labelled with the
// rule, position, size and cost that produced it.
func (p *Provenance) RenderTree() string {
	children := map[int][]int{}
	for _, n := range p.Nodes {
		if n.Parent >= 0 {
			children[n.Parent] = append(children[n.Parent], n.ID)
		}
	}
	var b strings.Builder
	var rec func(id, depth int)
	rec = func(id, depth int) {
		n := p.Nodes[id]
		mark := " "
		if n.Best {
			mark = "*"
		}
		b.WriteString(strings.Repeat("  ", depth))
		if n.Parent < 0 {
			fmt.Fprintf(&b, "%s input  size=%d cost=%.1f\n", mark, n.Size, n.Cost)
		} else {
			fmt.Fprintf(&b, "%s rule %d (%s) at %v  size=%d cost=%.1f  [%s]\n",
				mark, n.RuleNo, n.RuleName, n.Path, n.Size, n.Cost, n.Fate)
		}
		for _, c := range children[id] {
			rec(c, depth+1)
		}
	}
	if len(p.Nodes) > 0 {
		rec(0, 0)
	}
	return b.String()
}

// RenderSteps renders the chosen derivation chain, one line per step.
func (p *Provenance) RenderSteps() string {
	if len(p.Steps) == 0 {
		return "(no rule applied)\n"
	}
	var b strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "step %d: rule %d (%s) at %v  size %d -> %d  cost %.1f -> %.1f\n",
			i+1, s.RuleNo, s.RuleName, s.Path, s.SizeBefore, s.SizeAfter, s.CostBefore, s.CostAfter)
	}
	return b.String()
}

// stage names the earliest funnel gate that stopped a rule that never fired.
func (w RuleWhyNot) stage() string {
	switch {
	case w.Enqueued > 0:
		return "enqueued but a cheaper plan won"
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
		case w.Enqueued > 0:
			return 0
		case w.MemoDups > 0:
			return 1
		case w.Invalid > 0:
			return 2
		case w.NoOps > 0:
			return 3
		case w.MatchFailed > 0:
			return 4
		case w.ShapePruned > 0:
			return 5
		case w.IndexPruned > 0:
			return 6
		}
		return 7
	}
	sort.SliceStable(rest, func(i, j int) bool {
		if rank(rest[i]) != rank(rest[j]) {
			return rank(rest[i]) < rank(rest[j])
		}
		return rest[i].RuleNo < rest[j].RuleNo
	})
	var b strings.Builder
	for _, w := range fired {
		fmt.Fprintf(&b, "rule %3d %-32s FIRED x%d (attempts=%d enqueued=%d)\n",
			w.RuleNo, w.RuleName, w.Fired, w.Attempts, w.Enqueued)
	}
	for _, w := range rest {
		fmt.Fprintf(&b, "rule %3d %-32s %s (index-pruned=%d shape-pruned=%d attempts=%d match-failed=%d no-ops=%d invalid=%d memo-dups=%d enqueued=%d)\n",
			w.RuleNo, w.RuleName, w.stage(), w.IndexPruned, w.ShapePruned,
			w.Attempts, w.MatchFailed, w.NoOps, w.Invalid, w.MemoDups, w.Enqueued)
	}
	return b.String()
}
