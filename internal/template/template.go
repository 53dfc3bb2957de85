// Package template implements WeTune's symbolic query plan templates (§4.1).
// A template is a tree of relational operators whose tables, attribute lists
// and predicates are symbols rather than concrete names; pairs of templates
// plus a constraint set form rewrite rules.
package template

import (
	"fmt"
	"strconv"
	"strings"
)

// SymKind classifies template symbols (§4.1: relation, attribute list,
// predicate; §5.2 adds aggregate-function symbols).
type SymKind int

// Symbol kinds. KAttrsOf is the implicit attribute-list symbol a_r holding
// all attributes of relation r; its ID equals the relation's ID.
const (
	KRel SymKind = iota
	KAttrs
	KAttrsOf
	KPred
	KFunc
)

func (k SymKind) String() string {
	switch k {
	case KRel:
		return "r"
	case KAttrs:
		return "a"
	case KAttrsOf:
		return "ar"
	case KPred:
		return "p"
	case KFunc:
		return "f"
	}
	return "?"
}

// Sym is a template symbol.
type Sym struct {
	Kind SymKind
	ID   int
}

// String renders the symbol as kind-prefix + ID ("r0", "a1", "ar2", "p0",
// "f1"). This sits on the verifier's hottest paths (memo keys, canonical
// orderings), so it avoids fmt.
func (s Sym) String() string { return s.Kind.String() + strconv.Itoa(s.ID) }

// AttrsOf returns the implicit all-attributes symbol of relation r.
func AttrsOf(r Sym) Sym { return Sym{Kind: KAttrsOf, ID: r.ID} }

// Op is a template operator (Table 2, plus Agg/Union from §5.2).
type Op int

// Template operators.
const (
	OpInput Op = iota
	OpProj
	OpSel
	OpInSub
	OpIJoin
	OpLJoin
	OpRJoin
	OpDedup
	OpAgg
	OpUnion
)

func (o Op) String() string {
	switch o {
	case OpInput:
		return "Input"
	case OpProj:
		return "Proj"
	case OpSel:
		return "Sel"
	case OpInSub:
		return "InSub"
	case OpIJoin:
		return "IJoin"
	case OpLJoin:
		return "LJoin"
	case OpRJoin:
		return "RJoin"
	case OpDedup:
		return "Dedup"
	case OpAgg:
		return "Agg"
	case OpUnion:
		return "Union"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Arity returns the operator's number of relational inputs.
func (o Op) Arity() int {
	switch o {
	case OpInput:
		return 0
	case OpProj, OpSel, OpDedup, OpAgg:
		return 1
	default:
		return 2
	}
}

// Node is one template operator. Symbol usage by operator:
//
//	Input:  Rel
//	Proj:   Attrs (projection list)
//	Sel:    Pred, Attrs (attributes the predicate reads)
//	InSub:  Attrs (left-side attributes checked for presence)
//	*Join:  Attrs (left attrs), Attrs2 (right attrs)
//	Agg:    Attrs (group-by list), Attrs2 (aggregated attrs), Func, Pred (HAVING)
//	Dedup, Union: no symbols
type Node struct {
	Op       Op
	Rel      Sym
	Attrs    Sym
	Attrs2   Sym
	Pred     Sym
	Func     Sym
	Children []*Node
}

// Input constructs an Input node for relation symbol r.
func Input(r Sym) *Node { return &Node{Op: OpInput, Rel: r} }

// Proj constructs a projection node.
func Proj(a Sym, in *Node) *Node { return &Node{Op: OpProj, Attrs: a, Children: []*Node{in}} }

// Sel constructs a selection node.
func Sel(p, a Sym, in *Node) *Node {
	return &Node{Op: OpSel, Pred: p, Attrs: a, Children: []*Node{in}}
}

// InSub constructs an IN-subquery selection node.
func InSub(a Sym, l, r *Node) *Node {
	return &Node{Op: OpInSub, Attrs: a, Children: []*Node{l, r}}
}

// Join constructs a join node of the given kind.
func Join(op Op, al, ar Sym, l, r *Node) *Node {
	return &Node{Op: op, Attrs: al, Attrs2: ar, Children: []*Node{l, r}}
}

// Dedup constructs a deduplication node.
func Dedup(in *Node) *Node { return &Node{Op: OpDedup, Children: []*Node{in}} }

// AggNode constructs an aggregation node (§5.2 extension).
func AggNode(group, agg, f, having Sym, in *Node) *Node {
	return &Node{Op: OpAgg, Attrs: group, Attrs2: agg, Func: f, Pred: having, Children: []*Node{in}}
}

// UnionNode constructs a union node (§5.2 extension).
func UnionNode(l, r *Node) *Node { return &Node{Op: OpUnion, Children: []*Node{l, r}} }

// Size counts operators excluding Input nodes, the measure the paper bounds.
func (n *Node) Size() int {
	total := 0
	n.Walk(func(m *Node) {
		if m.Op != OpInput {
			total++
		}
	})
	return total
}

// Walk visits the tree in preorder.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Symbols lists every symbol occurring in the template (including the
// implicit AttrsOf symbol for each relation), in first-occurrence order.
func (n *Node) Symbols() []Sym {
	var out []Sym
	seen := map[Sym]bool{}
	add := func(s Sym) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	n.Walk(func(m *Node) {
		switch m.Op {
		case OpInput:
			add(m.Rel)
			add(AttrsOf(m.Rel))
		case OpProj:
			add(m.Attrs)
		case OpSel:
			add(m.Pred)
			add(m.Attrs)
		case OpInSub:
			add(m.Attrs)
		case OpIJoin, OpLJoin, OpRJoin:
			add(m.Attrs)
			add(m.Attrs2)
		case OpAgg:
			add(m.Attrs)
			add(m.Attrs2)
			add(m.Func)
			add(m.Pred)
		}
	})
	return out
}

// RelSyms lists the relation symbols in first-occurrence order.
func (n *Node) RelSyms() []Sym {
	var out []Sym
	for _, s := range n.Symbols() {
		if s.Kind == KRel {
			out = append(out, s)
		}
	}
	return out
}

// numOps is the number of template operators.
const numOps = int(OpUnion) + 1

// OpCounts tallies operators by kind (Input excluded), indexed by Op.
func (n *Node) OpCounts() [numOps]int {
	var counts [numOps]int
	n.countOps(&counts)
	return counts
}

func (n *Node) countOps(counts *[numOps]int) {
	if n.Op != OpInput {
		counts[n.Op]++
	}
	for _, c := range n.Children {
		c.countOps(counts)
	}
}

// NotMoreOpsThan reports whether n uses at most as many operators of each
// type as other — the paper's "q_dest is simpler than q_src" filter (§4.3).
// Pair generation asks it of every ordered template pair, so it allocates
// nothing.
func (n *Node) NotMoreOpsThan(other *Node) bool {
	a, b := n.OpCounts(), other.OpCounts()
	for op := range a {
		if a[op] > b[op] {
			return false
		}
	}
	return true
}

// String renders the template in the flattened pre-order form Table 7 uses,
// e.g. InSub_a0(InSub_a0(r0, r1), r1).
func (n *Node) String() string {
	var b strings.Builder
	n.format(&b)
	return b.String()
}

func (n *Node) format(b *strings.Builder) {
	switch n.Op {
	case OpInput:
		b.WriteString(n.Rel.String())
		return
	case OpProj:
		fmt.Fprintf(b, "Proj_%s", n.Attrs)
	case OpSel:
		fmt.Fprintf(b, "Sel_%s,%s", n.Pred, n.Attrs)
	case OpInSub:
		fmt.Fprintf(b, "InSub_%s", n.Attrs)
	case OpIJoin, OpLJoin, OpRJoin:
		fmt.Fprintf(b, "%s_%s,%s", n.Op, n.Attrs, n.Attrs2)
	case OpDedup:
		b.WriteString("Dedup")
	case OpAgg:
		fmt.Fprintf(b, "Agg_%s,%s,%s,%s", n.Attrs, n.Attrs2, n.Func, n.Pred)
	case OpUnion:
		b.WriteString("Union")
	}
	b.WriteString("(")
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		c.format(b)
	}
	b.WriteString(")")
}

// Clone deep-copies the template.
func (n *Node) Clone() *Node {
	cp := *n
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = c.Clone()
	}
	return &cp
}

// Substitute returns a copy with every symbol replaced per the mapping;
// symbols absent from the map are kept.
func (n *Node) Substitute(m map[Sym]Sym) *Node {
	sub := func(s Sym) Sym {
		if r, ok := m[s]; ok {
			return r
		}
		return s
	}
	cp := *n
	cp.Rel = sub(n.Rel)
	cp.Attrs = sub(n.Attrs)
	cp.Attrs2 = sub(n.Attrs2)
	cp.Pred = sub(n.Pred)
	cp.Func = sub(n.Func)
	cp.Children = make([]*Node, len(n.Children))
	for i, c := range n.Children {
		cp.Children[i] = c.Substitute(m)
	}
	return &cp
}

// RenameApart offsets dest's symbol IDs above src's so that the pair shares
// no symbols; constraints tie them back together.
func RenameApart(src, dest *Node) *Node {
	max := map[SymKind]int{}
	for _, s := range src.Symbols() {
		k := s.Kind
		if k == KAttrsOf {
			k = KRel
		}
		if s.ID >= max[k] {
			max[k] = s.ID + 1
		}
	}
	m := map[Sym]Sym{}
	for _, s := range dest.Symbols() {
		if s.Kind == KAttrsOf {
			continue
		}
		m[s] = Sym{Kind: s.Kind, ID: s.ID + max[s.Kind]}
	}
	return dest.Substitute(m)
}
