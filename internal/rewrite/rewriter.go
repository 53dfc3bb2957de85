package rewrite

import (
	"sync"

	"wetune/internal/engine"
	"wetune/internal/obs/journal"
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
	// the search memo does not fingerprint the same plan twice.
	fp string
}

// Rewriter drives WeTune's rewrite engine (§6): rules are compiled once into
// an immutable shape-keyed index, and each Search call runs the cost-guided
// best-first search over rewritten plans with per-call scratch (bindings,
// memo, frontier).
//
// Concurrency contract: configure the Rewriter first (Rules/Schema/DB), then
// share it — Search and Candidates are safe to call from concurrent
// goroutines as long as no field is mutated afterwards. The compiled rule
// index is built once on first use (or eagerly by NewRewriter) and never
// mutated.
type Rewriter struct {
	Rules  []rules.Rule
	Schema *sql.Schema
	DB     *engine.DB // optional: enables cost-based ranking

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
	scratch := searchScratchPool.Get().(*searchScratch)
	defer scratch.release()
	sc := &searchCtx{
		rw: rw, idx: rw.ruleIndex(), m: &Matcher{Schema: rw.Schema},
		jr: journal.Default(), scratch: scratch,
	}
	// The expand output lives in pooled scratch; copy it out for the caller.
	out := append([]Candidate(nil), sc.expand(p, plan.Fingerprint(p), 0, 0)...)
	sc.flushObs()
	return out
}

// ExploreOptions maps the paper's §8.4 flow — iteratively generate rewritten
// queries (including equal-size "enabler" steps like predicate pull-up and
// column switches), then pick the best final query by the cost estimator —
// onto Search budgets: beam bounds the frontier and depth the chain length.
// Callers that need an extra wall-clock bound (a serving deadline) set
// Deadline on the result; the node/frontier/step budgets stay identical, so
// an unexpired deadline returns byte-identical results.
func ExploreOptions(beam, depth int) Options {
	if beam <= 0 {
		beam = 8
	}
	if depth <= 0 {
		depth = 5
	}
	return Options{
		MaxSteps:    depth,
		MaxFrontier: beam,
		MaxNodes:    beam * depth * 4,
	}
}

// GreedyOptions returns the budgets of a single-path descent: a frontier of
// one (always follow the best candidate of each expansion), at most three
// steps, and a node budget of a few expansions. This is the degraded serving
// level named "greedy": a load-shedding tier wants bounded, near-constant
// work per query, and these budgets give it on the same indexed, memoized
// Search every other level runs.
func GreedyOptions() Options {
	return Options{MaxSteps: 3, MaxFrontier: 1, MaxNodes: 8}
}

func (rw *Rewriter) cost(p plan.Node) float64 {
	if rw.DB != nil {
		return rw.DB.EstimateCost(p)
	}
	return float64(plan.Size(p))
}

// --- tree paths ---

func nodeAt(p plan.Node, path []int) plan.Node {
	cur := p
	for _, i := range path {
		cur = cur.Children()[i]
	}
	return cur
}

func replaceAt(p plan.Node, path []int, repl plan.Node) plan.Node {
	if len(path) == 0 {
		return repl
	}
	children := p.Children()
	newChildren := make([]plan.Node, len(children))
	copy(newChildren, children)
	newChildren[path[0]] = replaceAt(children[path[0]], path[1:], repl)
	return p.WithChildren(newChildren)
}

// EliminateOrderBy removes Sort operators whose ordering cannot affect query
// results (§7). A Sort matters only when its ordering is still observable at
// the root or feeds a LIMIT through order-preserving operators
// (Proj/Sel/Dedup/InSub-left). Everything else — sorts inside IN-subqueries,
// under joins or aggregations — is stripped, as are ORDER BY clauses in
// predicate-level subqueries without LIMIT.
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
		return &plan.Sort{Keys: x.Keys, In: in}
	case *plan.Limit:
		return &plan.Limit{N: x.N, In: elimSort(x.In, true)}
	case *plan.Proj:
		items := make([]plan.ProjItem, len(x.Items))
		for i, it := range x.Items {
			items[i] = plan.ProjItem{Expr: stripSubqueryOrderBy(it.Expr), Alias: it.Alias}
		}
		return &plan.Proj{Items: items, In: elimSort(x.In, protected)}
	case *plan.Sel:
		return &plan.Sel{Pred: stripSubqueryOrderBy(x.Pred), In: elimSort(x.In, protected)}
	case *plan.Dedup:
		return &plan.Dedup{In: elimSort(x.In, protected)}
	case *plan.InSub:
		return &plan.InSub{
			Cols: x.Cols,
			In:   elimSort(x.In, protected),
			Sub:  elimSort(x.Sub, false),
		}
	case *plan.Derived:
		return &plan.Derived{Binding: x.Binding, In: elimSort(x.In, protected)}
	default:
		children := p.Children()
		if len(children) == 0 {
			return p
		}
		newChildren := make([]plan.Node, len(children))
		for i, c := range children {
			newChildren[i] = elimSort(c, false)
		}
		return p.WithChildren(newChildren)
	}
}

// stripSubqueryOrderBy removes ORDER BY clauses from IN/EXISTS subqueries in
// predicates when no LIMIT depends on them.
func stripSubqueryOrderBy(e sql.Expr) sql.Expr {
	if e == nil {
		return nil
	}
	strip := func(s *sql.SelectStmt) {
		var rec func(s *sql.SelectStmt)
		rec = func(s *sql.SelectStmt) {
			if s == nil {
				return
			}
			if s.Limit == nil {
				s.OrderBy = nil
			}
			rec(s.SetLeft)
			rec(s.SetRight)
			if w := s.Where; w != nil {
				sql.WalkExprs(w, func(x sql.Expr) bool {
					switch q := x.(type) {
					case *sql.InSubquery:
						rec(q.Select)
					case *sql.ExistsExpr:
						rec(q.Select)
					}
					return true
				})
			}
		}
		rec(s)
	}
	sql.WalkExprs(e, func(x sql.Expr) bool {
		switch q := x.(type) {
		case *sql.InSubquery:
			strip(q.Select)
		case *sql.ExistsExpr:
			strip(q.Select)
		case *sql.ScalarSubquery:
			strip(q.Select)
		}
		return true
	})
	return e
}
