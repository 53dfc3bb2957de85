package rewrite

import (
	"sync"

	"wetune/internal/plan"
	"wetune/internal/rules"
	"wetune/internal/sql"
)

// Applied records one rewrite step.
type Applied struct {
	RuleNo   int    `json:"rule"`
	RuleName string `json:"name"`
}

// Candidate is one possible single-step rewrite of a plan: the derived plan,
// the rule applied, and the position (root-to-node child-index path) it was
// applied at.
type Candidate struct {
	Plan plan.Node
	Rule rules.Rule
	Path []int

	// fp is the derived plan's fingerprint, computed once at generation so
	// the search memo does not fingerprint the same plan twice. It points
	// into the search context's byte arena and is nil in what Candidates
	// returns.
	fp []byte
}

// Rewriter drives WeTune's rewrite engine (§6): rules are compiled once into
// an immutable shape-keyed index, and each Search call runs the greedy
// descent over rewritten plans with per-call scratch (bindings, memo).
//
// Concurrency contract: configure the Rewriter first (Rules/Schema), then
// share it — Search and Candidates are safe to call from concurrent
// goroutines as long as no field is mutated afterwards. The compiled rule
// index is built once on first use (or eagerly by NewRewriter) and never
// mutated.
type Rewriter struct {
	Rules  []rules.Rule
	Schema *sql.Schema

	idxOnce sync.Once
	idx     *RuleIndex
}

// NewRewriter builds a rewriter over the given rule set, compiling the rule
// index eagerly.
func NewRewriter(rs []rules.Rule, schema *sql.Schema) *Rewriter {
	rw := &Rewriter{Rules: rs, Schema: schema}
	rw.ruleIndex()
	return rw
}

// ruleIndex returns the compiled rule index, building it on first use.
func (rw *Rewriter) ruleIndex() *RuleIndex {
	rw.idxOnce.Do(func() { rw.idx = NewRuleIndex(rw.Rules) })
	return rw.idx
}

// Candidates returns every single-step rewrite of p (any rule, any position),
// in deterministic (position, rule) order. The rule index prunes rules whose
// source template cannot match at a node; attempts and matches land in the
// default metrics registry (rewrite_rule_attempts / rewrite_rule_matches).
func (rw *Rewriter) Candidates(p plan.Node) []Candidate {
	sc := newSearchCtx(rw, nil)
	defer sc.release()
	sc.cur = state{plan: p}
	cands := sc.expand(&sc.cur)
	// The expand output lives in the pooled context; copy it out for the
	// caller without the fingerprints, which point into the pooled arena.
	out := append([]Candidate(nil), cands...)
	for i := range out {
		out[i].fp = nil
	}
	sc.flushObs()
	return out
}

// ExploreOptions bounds a search's chain length by depth; a non-positive
// depth is the default, so ExploreOptions(12, 6) searches as the zero Options
// does. The beam argument is ignored: the search is a descent, one state per
// step. It remains only because the benchmark's per-layer probe calls it.
func ExploreOptions(beam, depth int) Options {
	return Options{maxSteps: depth}
}

// --- tree paths ---

func nodeAt(p plan.Node, path []int) plan.Node {
	cur := p
	for _, i := range path {
		cur = plan.Child(cur, i)
	}
	return cur
}

func replaceAt(p plan.Node, path []int, repl plan.Node) plan.Node {
	if len(path) == 0 {
		return repl
	}
	newChildren := p.Children() // a fresh slice on every call
	newChildren[path[0]] = replaceAt(newChildren[path[0]], path[1:], repl)
	return p.WithChildren(newChildren)
}

// EliminateOrderBy removes Sort operators whose ordering cannot affect query
// results (§7). A Sort matters only when its ordering is still observable at
// the root or feeds a LIMIT through order-preserving operators
// (Proj/Sel/Dedup/InSub-left). Everything else — sorts inside IN-subqueries,
// under joins or aggregations — is stripped, as are ORDER BY clauses in
// predicate-level subqueries without LIMIT (in place, in the predicate's AST).
// Operators with nothing eliminated beneath them are returned as they are: a
// plan without a removable Sort comes back as the same node, unallocated.
func EliminateOrderBy(p plan.Node) plan.Node {
	return elimSort(p, true)
}

// elimSort walks the plan; protected means an enclosing root/LIMIT still
// observes this subtree's row order through order-preserving operators.
func elimSort(p plan.Node, protected bool) plan.Node {
	switch x := p.(type) {
	case *plan.Sort:
		// Any sort below this one is overridden by it.
		in := elimSort(x.In, false)
		if !protected {
			return in
		}
		if in == x.In {
			return x
		}
		return &plan.Sort{Keys: x.Keys, In: in}
	case *plan.Limit:
		if in := elimSort(x.In, true); in != x.In {
			return &plan.Limit{N: x.N, In: in}
		}
	case *plan.Proj:
		for _, it := range x.Items {
			stripSubqueryOrderBy(it.Expr)
		}
		if in := elimSort(x.In, protected); in != x.In {
			return &plan.Proj{Items: x.Items, In: in}
		}
	case *plan.Sel:
		stripSubqueryOrderBy(x.Pred)
		if in := elimSort(x.In, protected); in != x.In {
			return &plan.Sel{Pred: x.Pred, In: in}
		}
	case *plan.Dedup:
		if in := elimSort(x.In, protected); in != x.In {
			return &plan.Dedup{In: in}
		}
	case *plan.InSub:
		in, sub := elimSort(x.In, protected), elimSort(x.Sub, false)
		if in != x.In || sub != x.Sub {
			return &plan.InSub{Cols: x.Cols, In: in, Sub: sub}
		}
	case *plan.Derived:
		if in := elimSort(x.In, protected); in != x.In {
			return &plan.Derived{Binding: x.Binding, In: in}
		}
	default:
		var newChildren []plan.Node
		for i, k := 0, plan.NumChildren(p); i < k; i++ {
			c := plan.Child(p, i)
			nc := elimSort(c, false)
			if nc != c && newChildren == nil {
				newChildren = p.Children()
			}
			if newChildren != nil {
				newChildren[i] = nc
			}
		}
		if newChildren != nil {
			return p.WithChildren(newChildren)
		}
	}
	return p
}

// stripSubqueryOrderBy removes, in place, ORDER BY clauses from the IN, EXISTS
// and scalar subqueries of a predicate when no LIMIT depends on them.
func stripSubqueryOrderBy(e sql.Expr) {
	sql.WalkExprs(e, func(x sql.Expr) bool {
		switch q := x.(type) {
		case *sql.InSubquery:
			stripOrderBy(q.Select)
		case *sql.ExistsExpr:
			stripOrderBy(q.Select)
		case *sql.ScalarSubquery:
			stripOrderBy(q.Select)
		}
		return true
	})
}

// stripOrderBy drops the ORDER BY of a LIMIT-less subquery, of both sides of
// a set operation, and of the IN/EXISTS subqueries in its WHERE clause.
func stripOrderBy(s *sql.SelectStmt) {
	if s == nil {
		return
	}
	if s.Limit == nil {
		s.OrderBy = nil
	}
	stripOrderBy(s.SetLeft)
	stripOrderBy(s.SetRight)
	sql.WalkExprs(s.Where, func(x sql.Expr) bool {
		switch q := x.(type) {
		case *sql.InSubquery:
			stripOrderBy(q.Select)
		case *sql.ExistsExpr:
			stripOrderBy(q.Select)
		}
		return true
	})
}
