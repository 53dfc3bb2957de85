package rewrite

import (
	"sort"

	"wetune/internal/plan"
)

// This file keeps the best-first search that the descent replaced, widened,
// as the differential reference: TestSearchMatchesWideReference requires
// Search to return exactly the plan this search returns. It keeps up to
// wideFrontier pending states, ranked by (operator count, discovery order),
// walks chains of up to wideSteps and expands at most wideNodes states; it
// returns the smallest plan seen, the first found among equals. Candidates of
// one expansion enter the frontier in (size, rule number, position) order,
// and every candidate enters the visited memo, as in Search.
const (
	wideFrontier = 48
	wideSteps    = 12
	wideNodes    = wideFrontier * wideSteps * 4
)

// wideState is one node of the reference search graph.
type wideState struct {
	state
	path []Applied
	seq  int // insertion sequence: FIFO among rank ties
}

func wideLess(a, b *wideState) bool {
	if a.size != b.size {
		return a.size < b.size
	}
	return a.seq < b.seq
}

// WideSearch runs the reference search over p. ORDER BY elimination runs
// first, as in Search. Truncated reports whether a budget cut the search.
func (rw *Rewriter) WideSearch(p plan.Node) (out plan.Node, applied []Applied, truncated bool) {
	sc := newSearchCtx(rw, nil)
	defer sc.release()
	start := EliminateOrderBy(p)
	first := &wideState{state: state{plan: start, size: plan.Size(start)}}
	frontier := []*wideState{first}
	best := first
	seq, nodes := 1, 0
	for len(frontier) > 0 {
		if nodes >= wideNodes {
			return best.plan, best.path, true
		}
		st := frontier[0]
		frontier = frontier[1:]
		if st.depth >= wideSteps {
			truncated = true
			continue
		}
		nodes++
		type ranked struct {
			c    Candidate
			size int
		}
		var rs []ranked
		for _, c := range sc.expand(&st.state) {
			rs = append(rs, ranked{c: c, size: plan.Size(c.Plan)})
		}
		sort.SliceStable(rs, func(i, j int) bool {
			a, b := rs[i], rs[j]
			if a.size != b.size {
				return a.size < b.size
			}
			if a.c.Rule.No != b.c.Rule.No {
				return a.c.Rule.No < b.c.Rule.No
			}
			return pathLess(a.c.Path, b.c.Path)
		})
		for _, r := range rs {
			if sc.seen[string(r.c.fp)] {
				continue
			}
			fp := string(r.c.fp)
			sc.seen[fp] = true
			ns := &wideState{
				state: state{plan: r.c.Plan, fp: fp, size: r.size, depth: st.depth + 1},
				path: append(append([]Applied{}, st.path...),
					Applied{RuleNo: r.c.Rule.No, RuleName: r.c.Rule.Name}),
				seq: seq,
			}
			seq++
			if wideLess(ns, best) {
				best = ns
			}
			i := sort.Search(len(frontier), func(i int) bool { return wideLess(ns, frontier[i]) })
			frontier = append(frontier, nil)
			copy(frontier[i+1:], frontier[i:])
			frontier[i] = ns
		}
		if len(frontier) > wideFrontier {
			frontier = frontier[:wideFrontier]
			truncated = true
		}
	}
	return best.plan, best.path, truncated
}
