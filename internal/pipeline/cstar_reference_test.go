package pipeline

import (
	"slices"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/template"
)

// referenceCStar is C* built the exhaustive way: every well-typed constraint
// of §4.2 that mentions a source symbol, RefAttrs over every pair of
// attribute lists, and then only the RefAttrs members whose two lists a join
// or an IN-subquery of either template compares. constraint.Enumerate
// generates those members in place; this is the reference it must equal.
func referenceCStar(src, dest *template.Node) []constraint.C {
	srcSyms := map[template.Sym]bool{}
	for _, s := range src.Symbols() {
		srcSyms[s] = true
	}
	all := src.Symbols()
	for _, s := range dest.Symbols() {
		if !srcSyms[s] {
			all = append(all, s)
		}
	}
	var rels, attrs, attrsAll, preds, funcs []template.Sym
	for _, s := range all {
		switch s.Kind {
		case template.KRel:
			rels = append(rels, s)
		case template.KAttrs:
			attrs = append(attrs, s)
			attrsAll = append(attrsAll, s)
		case template.KAttrsOf:
			attrsAll = append(attrsAll, s)
		case template.KPred:
			preds = append(preds, s)
		case template.KFunc:
			funcs = append(funcs, s)
		}
	}
	useful := func(syms ...template.Sym) bool {
		for _, s := range syms {
			if srcSyms[s] || s.Kind == template.KAttrsOf && srcSyms[template.Sym{Kind: template.KRel, ID: s.ID}] {
				return true
			}
		}
		return false
	}
	var out []constraint.C
	equal := func(k constraint.Kind, syms []template.Sym) {
		for i := 0; i < len(syms); i++ {
			for j := i + 1; j < len(syms); j++ {
				if useful(syms[i], syms[j]) {
					out = append(out, constraint.New(k, syms[i], syms[j]))
				}
			}
		}
	}
	equal(constraint.RelEq, rels)
	equal(constraint.AttrsEq, attrs)
	equal(constraint.PredEq, preds)
	equal(constraint.AggrEq, funcs)
	for _, a1 := range attrs {
		for _, a2 := range attrsAll {
			if a1 != a2 && useful(a1, a2) {
				out = append(out, constraint.New(constraint.SubAttrs, a1, a2))
			}
		}
	}
	for _, r := range rels {
		for _, a := range attrs {
			if useful(r, a) {
				out = append(out, constraint.New(constraint.Unique, r, a), constraint.New(constraint.NotNull, r, a))
			}
		}
	}
	hinted := map[[2]template.Sym]bool{}
	addHint := func(a, b template.Sym) {
		hinted[[2]template.Sym{a, b}] = true
		hinted[[2]template.Sym{b, a}] = true
	}
	for _, t := range []*template.Node{src, dest} {
		t.Walk(func(n *template.Node) {
			switch n.Op {
			case template.OpIJoin, template.OpLJoin, template.OpRJoin:
				addHint(n.Attrs, n.Attrs2)
			case template.OpInSub:
				n.Children[1].Walk(func(m *template.Node) {
					if m.Op == template.OpProj {
						addHint(n.Attrs, m.Attrs)
					}
					if m.Op == template.OpInput {
						addHint(n.Attrs, template.AttrsOf(m.Rel))
					}
				})
			}
		})
	}
	for _, r1 := range rels {
		for _, a1 := range attrs {
			for _, r2 := range rels {
				for _, a2 := range attrs {
					if r1 != r2 && a1 != a2 && useful(r1, a1, r2, a2) && hinted[[2]template.Sym{a1, a2}] {
						out = append(out, constraint.New(constraint.RefAttrs, r1, a1, r2, a2))
					}
				}
			}
		}
	}
	return out
}

// TestEnumerateMatchesReference requires constraint.Enumerate to give the
// reference C* member for member, in order, for every pair a size-2
// discovery generates (and under -size3 every size-3 pair), and
// EnumerateAtMost to skip exactly the pairs whose reference C* is past the
// cap and to give the same set for the others.
func TestEnumerateMatchesReference(t *testing.T) {
	want := map[int][2]int{2: {250, 91}, 3: {13514, 1129}} // pairs generated, tried
	sizes := []int{2}
	if *size3 {
		sizes = append(sizes, 3)
	}
	for _, size := range sizes {
		ts := template.Enumerate(template.EnumOptions{MaxSize: size})
		pairs, tried, refAttrs := 0, 0, 0
		for _, src := range ts {
			for _, d := range ts {
				if !d.NotMoreOpsThan(src) {
					continue
				}
				dest := RenameApart(src, d)
				pairs++
				ref := referenceCStar(src, dest)
				if got := constraint.Enumerate(src, dest).Items(); !slices.Equal(got, ref) {
					t.Fatalf("%s => %s: C*\n  %v\nthe reference\n  %v", src, dest, got, ref)
				}
				bounded := constraint.EnumerateAtMost(src, dest, defaultMaxConstraints)
				if skipped := len(ref) > defaultMaxConstraints; skipped != (bounded == nil) {
					t.Fatalf("%s => %s: %d members, skipped %v", src, dest, len(ref), bounded == nil)
				}
				if bounded == nil {
					continue
				}
				if !slices.Equal(bounded.Items(), ref) {
					t.Fatalf("%s => %s: bounded C* %v, the reference %v", src, dest, bounded, ref)
				}
				tried++
				refAttrs += len(bounded.ByKind(constraint.RefAttrs))
			}
		}
		if got := [2]int{pairs, tried}; got != want[size] {
			t.Errorf("size %d: %d pairs generated, %d tried; want %d and %d", size, pairs, tried, want[size][0], want[size][1])
		}
		t.Logf("size %d: %d pairs, %d tried, %d RefAttrs in the tried pairs' C*", size, pairs, tried, refAttrs)
	}
}
