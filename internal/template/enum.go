package template

// Template enumeration (§4.1, Figure 3). The strategy mirrors the paper:
// first enumerate tree shapes with unary and binary internal nodes, then
// exhaustively assign operators to nodes, then attach Input leaves, and
// finally number the symbols canonically in preorder. Templates that cannot
// correspond to valid (or non-degenerate) SQL are filtered.

// EnumOptions configures the enumerator.
type EnumOptions struct {
	// MaxSize bounds the number of operators excluding Input (paper: 4).
	MaxSize int
}

// shape is a tree skeleton: 1 = unary node, 2 = binary node.
type shape struct {
	arity    int
	children []*shape
}

// enumShapes returns all skeletons with exactly n internal nodes.
func enumShapes(n int) []*shape {
	if n == 0 {
		return []*shape{nil} // leaf (future Input)
	}
	var out []*shape
	// Unary root.
	for _, c := range enumShapes(n - 1) {
		out = append(out, &shape{arity: 1, children: []*shape{c}})
	}
	// Binary root.
	for i := 0; i <= n-1; i++ {
		ls := enumShapes(i)
		rs := enumShapes(n - 1 - i)
		for _, l := range ls {
			for _, r := range rs {
				out = append(out, &shape{arity: 2, children: []*shape{l, r}})
			}
		}
	}
	return out
}

// The operators enumeration assigns: Table 2's, those uexpr.Translate can
// give a U-expression. Agg and Union (§5.2) are left out, since both
// provers refuse them; the paper verifies them only through SPES.
var (
	unaryOps = []Op{OpProj, OpSel, OpDedup}
	// No OpRJoin: every RJoin template mirrors an LJoin template, so
	// enumerating both only duplicates rules (DESIGN.md deviation 5).
	binaryOps = []Op{OpInSub, OpIJoin, OpLJoin}
)

// Enumerate produces every valid template with size 1..MaxSize. Symbols are
// numbered canonically in preorder, so structurally identical templates are
// produced exactly once.
func Enumerate(opts EnumOptions) []*Node {
	var out []*Node
	for n := 1; n <= opts.MaxSize; n++ {
		for _, sh := range enumShapes(n) {
			out = append(out, assign(sh)...)
		}
	}
	var kept []*Node
	for _, t := range out {
		if valid(t) {
			numberSymbols(t)
			kept = append(kept, t)
		}
	}
	return kept
}

// assign fills a skeleton with all compatible operator choices.
func assign(sh *shape) []*Node {
	if sh == nil {
		return []*Node{Input(Sym{Kind: KRel})}
	}
	var out []*Node
	if sh.arity == 1 {
		for _, sub := range assign(sh.children[0]) {
			for _, op := range unaryOps {
				out = append(out, &Node{Op: op, Children: []*Node{sub.Clone()}})
			}
		}
		return out
	}
	ls := assign(sh.children[0])
	rs := assign(sh.children[1])
	for _, l := range ls {
		for _, r := range rs {
			for _, op := range binaryOps {
				out = append(out, &Node{Op: op, Children: []*Node{l.Clone(), r.Clone()}})
			}
		}
	}
	return out
}

// valid filters templates that cannot be valid, non-degenerate SQL:
//
//   - Dedup directly above Dedup is a no-op;
//   - Proj directly above Proj composes into one projection;
//   - Dedup as the right child of InSub is a no-op (IN ignores duplicates).
func valid(t *Node) bool {
	ok := true
	t.Walk(func(n *Node) {
		switch n.Op {
		case OpDedup:
			if n.Children[0].Op == OpDedup {
				ok = false
			}
		case OpProj:
			if n.Children[0].Op == OpProj {
				ok = false
			}
		case OpInSub:
			if n.Children[1].Op == OpDedup {
				ok = false
			}
		}
	})
	return ok
}

// numberSymbols assigns fresh canonical symbol IDs in preorder.
func numberSymbols(t *Node) {
	counters := map[SymKind]int{}
	fresh := func(k SymKind) Sym {
		id := counters[k]
		counters[k]++
		return Sym{Kind: k, ID: id}
	}
	t.Walk(func(n *Node) {
		switch n.Op {
		case OpInput:
			n.Rel = fresh(KRel)
		case OpProj:
			n.Attrs = fresh(KAttrs)
		case OpSel:
			n.Pred = fresh(KPred)
			n.Attrs = fresh(KAttrs)
		case OpInSub:
			n.Attrs = fresh(KAttrs)
		case OpIJoin, OpLJoin, OpRJoin:
			n.Attrs = fresh(KAttrs)
			n.Attrs2 = fresh(KAttrs)
		}
	})
}

// CountShapes returns the number of tree skeletons with exactly n internal
// nodes; exposed for the enumeration statistics reported in EXPERIMENTS.md.
func CountShapes(n int) int {
	return len(enumShapes(n))
}
