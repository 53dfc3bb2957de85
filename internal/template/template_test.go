package template

import (
	"testing"
)

func r(id int) Sym { return Sym{Kind: KRel, ID: id} }
func a(id int) Sym { return Sym{Kind: KAttrs, ID: id} }
func p(id int) Sym { return Sym{Kind: KPred, ID: id} }

// figure2Src builds InSub_a0(InSub_a0(r0, r1), r2), the source template of
// the paper's Figure 2 rule (with r1 = r2 imposed by constraints).
func figure2Src() *Node {
	return InSub(a(0), InSub(a(0), Input(r(0)), Input(r(1))), Input(r(2)))
}

func TestSize(t *testing.T) {
	src := figure2Src()
	if got := src.Size(); got != 2 {
		t.Fatalf("Size = %d, want 2 (Input excluded)", got)
	}
	if got := Input(r(0)).Size(); got != 0 {
		t.Fatalf("Input size = %d, want 0", got)
	}
}

func TestString(t *testing.T) {
	src := figure2Src()
	want := "InSub_a0(InSub_a0(r0, r1), r2)"
	if got := src.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestSymbols(t *testing.T) {
	src := figure2Src()
	syms := src.Symbols()
	// a0, r0, ar0, r1, ar1, r2, ar2.
	if len(syms) != 7 {
		t.Fatalf("symbols = %v (len %d), want 7", syms, len(syms))
	}
	rels := src.RelSyms()
	if len(rels) != 3 {
		t.Fatalf("rel syms = %v", rels)
	}
}

func TestOpCountsAndSimplerFilter(t *testing.T) {
	src := figure2Src()
	dest := InSub(a(1), Input(r(3)), Input(r(4)))
	if !dest.NotMoreOpsThan(src) {
		t.Error("dest should be simpler than src")
	}
	if src.NotMoreOpsThan(dest) {
		t.Error("src should not be simpler than dest")
	}
	// Equal op multisets pass in both directions.
	if !src.NotMoreOpsThan(src.Clone()) {
		t.Error("template should not be more complex than itself")
	}
	if got := src.OpCounts(); got[OpInSub] != 2 || got[OpInput] != 0 {
		t.Errorf("OpCounts(%s) = %v, want 2 InSub and no Input", src, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { dest.NotMoreOpsThan(src) }); allocs != 0 {
		t.Errorf("NotMoreOpsThan allocates %v times, want 0", allocs)
	}
}

func TestSubstitute(t *testing.T) {
	src := figure2Src()
	sub := src.Substitute(map[Sym]Sym{r(2): r(1), a(0): a(9)})
	want := "InSub_a9(InSub_a9(r0, r1), r1)"
	if got := sub.String(); got != want {
		t.Fatalf("Substitute = %q, want %q", got, want)
	}
	// Original untouched.
	if src.String() != "InSub_a0(InSub_a0(r0, r1), r2)" {
		t.Fatalf("Substitute mutated the original: %s", src)
	}
}

func TestCloneIsDeep(t *testing.T) {
	src := figure2Src()
	cp := src.Clone()
	cp.Children[0].Attrs = a(42)
	if src.Children[0].Attrs == a(42) {
		t.Fatal("Clone shares children")
	}
}

func TestEnumShapeCounts(t *testing.T) {
	// With unary+binary internal nodes the shape counts follow the
	// recursion S(0)=1, S(n) = S(n-1) + sum_{i+j=n-1} S(i)S(j):
	// 1, 2, 6, 22, 90.
	wants := map[int]int{0: 1, 1: 2, 2: 6, 3: 22, 4: 90}
	for n, want := range wants {
		if got := CountShapes(n); got != want {
			t.Errorf("CountShapes(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEnumerateSize1(t *testing.T) {
	ts := Enumerate(EnumOptions{MaxSize: 1})
	// 3 unary + 3 binary operators at the root.
	if len(ts) != 6 {
		t.Fatalf("size-1 templates = %d, want 6", len(ts))
	}
	seen := map[string]bool{}
	for _, tpl := range ts {
		s := tpl.String()
		if seen[s] {
			t.Errorf("duplicate template %s", s)
		}
		seen[s] = true
		if tpl.Size() != 1 {
			t.Errorf("template %s has size %d", s, tpl.Size())
		}
	}
}

func TestEnumerateValidityFilters(t *testing.T) {
	ts := Enumerate(EnumOptions{MaxSize: 2})
	for _, tpl := range ts {
		tpl.Walk(func(n *Node) {
			if n.Op == OpDedup && n.Children[0].Op == OpDedup {
				t.Errorf("Dedup(Dedup) leaked: %s", tpl)
			}
			if n.Op == OpProj && n.Children[0].Op == OpProj {
				t.Errorf("Proj(Proj) leaked: %s", tpl)
			}
			if n.Op == OpInSub && n.Children[1].Op == OpDedup {
				t.Errorf("InSub(_, Dedup) leaked: %s", tpl)
			}
		})
	}
}

func TestEnumerateGrowth(t *testing.T) {
	n1 := len(Enumerate(EnumOptions{MaxSize: 1}))
	n2 := len(Enumerate(EnumOptions{MaxSize: 2}))
	n3 := len(Enumerate(EnumOptions{MaxSize: 3}))
	if !(n1 < n2 && n2 < n3) {
		t.Fatalf("counts should grow: %d, %d, %d", n1, n2, n3)
	}
	// Paper reports 3113 distinct templates at size <= 4 with its filters;
	// ours should land in the same order of magnitude.
	n4 := len(Enumerate(EnumOptions{MaxSize: 4}))
	if n4 < 1000 || n4 > 20000 {
		t.Fatalf("size-4 template count %d out of plausible range", n4)
	}
	t.Logf("template counts by max size: 1:%d 2:%d 3:%d 4:%d", n1, n2, n3, n4)
}

func TestEnumerateCanonicalSymbols(t *testing.T) {
	for _, tpl := range Enumerate(EnumOptions{MaxSize: 2}) {
		// Relation symbols must be numbered 0..k-1 in preorder.
		rels := tpl.RelSyms()
		for i, s := range rels {
			if s.ID != i {
				t.Fatalf("template %s: rel symbol %d has ID %d", tpl, i, s.ID)
			}
		}
	}
}
