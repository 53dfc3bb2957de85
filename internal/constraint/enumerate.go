package constraint

import (
	"math"
	"slices"

	"wetune/internal/template"
)

// Enumerate generates the candidate constraint set C* for a template pair
// (§4.2): every well-typed instantiation of the constraint predicates with
// symbols of q_src and q_dest, excluding "useless" constraints that mention
// only destination symbols (§4.3) — those can never tie the destination back
// to the source — and keeping RefAttrs(r1, a1, r2, a2) only where the
// templates compare a1 with a2 (DESIGN.md deviation 13).
func Enumerate(src, dest *template.Node) *Set {
	return EnumerateAtMost(src, dest, math.MaxInt)
}

// EnumerateAtMost is Enumerate for a search that skips a pair whose C* has
// more than limit members: it returns nil for such a pair, having counted
// limit+1 members and built nothing.
func EnumerateAtMost(src, dest *template.Node, limit int) *Set {
	e := newEnumeration(src, dest)
	n := 0
	if !e.walk(func(C) bool { n++; return n <= limit }) {
		return nil
	}
	out := newSet(n)
	e.walk(func(c C) bool { out.add(c); return true })
	return out
}

// enumeration is what the walk over C* reads of one template pair.
type enumeration struct {
	srcSyms                             []template.Sym
	rels, attrs, attrsAll, preds, funcs []template.Sym
	// refs[i] lists, in attrs order, the lists RefAttrs pairs with attrs[i].
	refs [][]template.Sym
}

func newEnumeration(src, dest *template.Node) *enumeration {
	e := &enumeration{srcSyms: src.Symbols()}
	all := slices.Clip(e.srcSyms)
	for _, s := range dest.Symbols() {
		if !slices.Contains(e.srcSyms, s) {
			all = append(all, s)
		}
	}
	for _, s := range all {
		switch s.Kind {
		case template.KRel:
			e.rels = append(e.rels, s)
		case template.KAttrs:
			e.attrs = append(e.attrs, s)
			e.attrsAll = append(e.attrsAll, s)
		case template.KAttrsOf:
			e.attrsAll = append(e.attrsAll, s)
		case template.KPred:
			e.preds = append(e.preds, s)
		case template.KFunc:
			e.funcs = append(e.funcs, s)
		}
	}
	// The templates compare a join's two lists, and an IN's list with each
	// projection inside its subquery. (They also compare the IN's list with a
	// subquery relation's a_r, but RefAttrs takes plain lists only.)
	var compared [][2]template.Sym
	compare := func(a, b template.Sym) { compared = append(compared, [2]template.Sym{a, b}, [2]template.Sym{b, a}) }
	for _, t := range []*template.Node{src, dest} {
		t.Walk(func(n *template.Node) {
			switch n.Op {
			case template.OpIJoin, template.OpLJoin, template.OpRJoin:
				compare(n.Attrs, n.Attrs2)
			case template.OpInSub:
				n.Children[1].Walk(func(m *template.Node) {
					if m.Op == template.OpProj {
						compare(n.Attrs, m.Attrs)
					}
				})
			}
		})
	}
	e.refs = make([][]template.Sym, len(e.attrs))
	for i, a1 := range e.attrs {
		for _, a2 := range e.attrs {
			if a1 != a2 && slices.Contains(compared, [2]template.Sym{a1, a2}) {
				e.refs[i] = append(e.refs[i], a2)
			}
		}
	}
	return e
}

// useful reports whether a constraint over syms mentions a source symbol.
func (e *enumeration) useful(syms ...template.Sym) bool {
	for _, s := range syms {
		if slices.Contains(e.srcSyms, s) {
			return true
		}
		// AttrsOf symbols belong to their relation.
		if s.Kind == template.KAttrsOf && slices.Contains(e.srcSyms, template.Sym{Kind: template.KRel, ID: s.ID}) {
			return true
		}
	}
	return false
}

// walk hands yield the members of C* in order until yield returns false,
// and reports whether it handed all of them.
func (e *enumeration) walk(yield func(C) bool) bool {
	// Equivalence constraints over same-kind symbol pairs.
	for _, eq := range []struct {
		k    Kind
		syms []template.Sym
	}{{RelEq, e.rels}, {AttrsEq, e.attrs}, {PredEq, e.preds}, {AggrEq, e.funcs}} {
		for i, x := range eq.syms {
			for _, y := range eq.syms[i+1:] {
				if e.useful(x, y) && !yield(New(eq.k, x, y)) {
					return false
				}
			}
		}
	}
	// SubAttrs(a1, a2): a1 a plain attrs symbol, a2 any attrs symbol
	// (including the implicit a_r of each relation).
	for _, a1 := range e.attrs {
		for _, a2 := range e.attrsAll {
			if a1 != a2 && e.useful(a1, a2) && !yield(New(SubAttrs, a1, a2)) {
				return false
			}
		}
	}
	// Unique / NotNull over (relation, attrs) pairs.
	for _, r := range e.rels {
		for _, a := range e.attrs {
			if e.useful(r, a) && (!yield(New(Unique, r, a)) || !yield(New(NotNull, r, a))) {
				return false
			}
		}
	}
	// RefAttrs(r1, a1, r2, a2) over distinct relations and compared lists.
	for _, r1 := range e.rels {
		for i, a1 := range e.attrs {
			for _, r2 := range e.rels {
				if r1 == r2 {
					continue
				}
				for _, a2 := range e.refs[i] {
					if e.useful(r1, a1, r2, a2) && !yield(New(RefAttrs, r1, a1, r2, a2)) {
						return false
					}
				}
			}
		}
	}
	return true
}
