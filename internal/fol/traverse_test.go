package fol

import (
	"fmt"
	"testing"

	"wetune/internal/uexpr"
)

// allKinds returns a formula holding every formula kind and every term kind.
func allKinds() Formula {
	x, y := &uexpr.TVar{ID: 1}, &uexpr.TVar{ID: 2}
	ax := &uexpr.TAttr{Attrs: asym(0), T: x}
	rx := &RelApp{Rel: rsym(0), T: x}
	return &And{Fs: []Formula{
		&TupleEq{L: ax, R: y},
		&Or{Fs: []Formula{&PredApp{Pred: psym(0), T: x}, &Not{F: &IsNull{T: y}}}},
		&IntEq{L: rx, R: &ITE{Cond: &TrueF{}, Then: &IntConst{N: 1}, Else: &MulT{Fs: []Term{rx, &IntConst{N: 0}}}}},
		&Implies{L: &IntGt0{T: &AddT{Ts: []Term{rx, &RelApp{Rel: rsym(1), T: y}}}}, R: &FalseF{}},
		&Forall{Vars: []*uexpr.TVar{x}, Body: &IntLe1{T: rx}},
		&Exists{Vars: []*uexpr.TVar{y}, Body: &IsNull{T: ax}},
	}}
}

// nodes lists every formula and term of f, parents first.
func nodes(f Formula) (fs []Formula, ts []Term) {
	var m Mapper
	m = Mapper{
		Formula: func(g Formula) Formula { fs = append(fs, g); m.MapFormula(g, nil); return g },
		Term:    func(t Term) Term { ts = append(ts, t); m.MapTerm(t, nil); return t },
	}
	m.Formula(f)
	return fs, ts
}

// TestTraversalVisitsEveryPosition feeds every formula and term kind through
// a map that replaces each child and tuple argument it is offered, and through
// a walk, and requires the walk to see exactly the positions the map offers:
// the same kinds, in the same order, and the map's result to hold the
// replacements at all of them and nothing else changed.
func TestTraversalVisitsEveryPosition(t *testing.T) {
	fs, ts := nodes(allKinds())
	if len(fs) != 15 || len(ts) != 10 {
		t.Fatalf("allKinds holds %d formulas and %d terms, want 15 and 10", len(fs), len(ts))
	}
	kinds := map[string]bool{}
	for _, f := range fs {
		kinds[fmt.Sprintf("%T", f)] = true
	}
	for _, u := range ts {
		kinds[fmt.Sprintf("%T", u)] = true
	}
	if len(kinds) != 19 {
		t.Fatalf("allKinds holds %d kinds, want all 19: %v", len(kinds), kinds)
	}

	var walked, offered []string
	walk := Mapper{
		Formula: func(g Formula) Formula { walked = append(walked, "F "+g.String()); return g },
		Term:    func(u Term) Term { walked = append(walked, "T "+u.String()); return u },
		Tuple:   func(u uexpr.Tuple) uexpr.Tuple { walked = append(walked, "U "+u.String()); return u },
		Bind:    func(vs []*uexpr.TVar) bool { walked = append(walked, fmt.Sprint("B ", vs)); return false },
	}
	mark := &uexpr.TVar{ID: 99}
	wrap := Mapper{
		Formula: func(g Formula) Formula { offered = append(offered, "F "+g.String()); return &Not{F: g} },
		Term:    func(u Term) Term { offered = append(offered, "T "+u.String()); return &MulT{Fs: []Term{u}} },
		Tuple: func(u uexpr.Tuple) uexpr.Tuple {
			offered = append(offered, "U "+u.String())
			return &uexpr.TConcat{L: mark, R: u}
		},
		Bind: func(vs []*uexpr.TVar) bool { offered = append(offered, fmt.Sprint("B ", vs)); return false },
	}
	unwrap := Mapper{
		Formula: func(g Formula) Formula { return g.(*Not).F },
		Term:    func(u Term) Term { return u.(*MulT).Fs[0] },
		Tuple:   func(u uexpr.Tuple) uexpr.Tuple { return u.(*uexpr.TConcat).R },
	}
	check := func(n any, walkIt, wrapIt, unwrapIt func(*Mapper) any) {
		t.Helper()
		walked, offered = nil, nil
		if walkIt(&walk) != n {
			t.Errorf("%T: a walk must return the node itself", n)
		}
		got := wrapIt(&wrap)
		if fmt.Sprint(walked) != fmt.Sprint(offered) {
			t.Errorf("%T: positions\n  walk %q\n  map  %q", n, walked, offered)
		}
		if len(offered) == 0 {
			if got != n {
				t.Errorf("%T: a node without children must come back as it is", n)
			}
			return
		}
		if got == n {
			t.Errorf("%T: the map changed no child", n)
		}
		if back := unwrapIt(&unwrap); fmt.Sprint(back) != fmt.Sprint(n) {
			t.Errorf("%T: unwrapped %v, want %v", n, back, n)
		}
	}
	for _, f := range fs {
		var got Formula
		check(f,
			func(m *Mapper) any { return m.MapFormula(f, nil) },
			func(m *Mapper) any { got = m.MapFormula(f, nil); return got },
			func(m *Mapper) any { return m.MapFormula(got, nil) })
	}
	for _, u := range ts {
		var got Term
		check(u,
			func(m *Mapper) any { return m.MapTerm(u, nil) },
			func(m *Mapper) any { got = m.MapTerm(u, nil); return got },
			func(m *Mapper) any { return m.MapTerm(got, nil) })
	}
}

// TestBindHidesQuantifiedBody: a quantifier whose variables Bind claims comes
// back as it is, its body unvisited.
func TestBindHidesQuantifiedBody(t *testing.T) {
	x := &uexpr.TVar{ID: 1}
	q := &Forall{Vars: []*uexpr.TVar{x}, Body: &IsNull{T: x}}
	visited := false
	m := Mapper{
		Formula: func(g Formula) Formula { visited = true; return &TrueF{} },
		Bind:    func(vs []*uexpr.TVar) bool { return vs[0].ID == 1 },
	}
	if m.MapFormula(q, nil) != q || visited {
		t.Error("a bound quantifier must come back unvisited")
	}
	m.Bind = func([]*uexpr.TVar) bool { return false }
	if got := m.MapFormula(q, nil); got.String() != "forall t1. true" {
		t.Errorf("unbound quantifier mapped to %s", got)
	}
}

// TestIdentityMapAllocatesNothing: a deep walk over plain formulas — a map
// whose hooks map their child again and return it — returns its input
// pointer and allocates nothing.
func TestIdentityMapAllocatesNothing(t *testing.T) {
	f := allKinds()
	n := 0
	var m Mapper
	m = Mapper{
		Formula: func(g Formula) Formula { return m.MapFormula(g, nil) },
		Term:    func(u Term) Term { return m.MapTerm(u, nil) },
		Tuple:   func(u uexpr.Tuple) uexpr.Tuple { n++; return u },
	}
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		if m.MapFormula(f, nil) != f {
			t.Fatal("identity map copied the formula")
		}
	})
	if allocs != 0 {
		t.Errorf("identity map: %v allocs per run, want 0", allocs)
	}
	if n != 10 {
		t.Errorf("walk met %d tuple arguments, want 10", n)
	}
}

// TestCopyRebuildsEveryNode: with Copy set the plain builder rebuilds even
// the leaves, into a structurally equal formula sharing no node (true and
// false are zero-size: every plain one has the same address).
func TestCopyRebuildsEveryNode(t *testing.T) {
	f := allKinds()
	var m Mapper
	m = Mapper{
		Formula: func(g Formula) Formula { return m.MapFormula(g, nil) },
		Term:    func(u Term) Term { return m.MapTerm(u, nil) },
		Copy:    true,
	}
	got := m.MapFormula(f, nil)
	if got.String() != f.String() {
		t.Fatalf("copy %s, want %s", got, f)
	}
	orig, _ := nodes(f)
	copied, _ := nodes(got)
	for i := range orig {
		_, t1 := orig[i].(*TrueF)
		_, f1 := orig[i].(*FalseF)
		if orig[i] == copied[i] && !t1 && !f1 {
			t.Errorf("copy shares %T %s", orig[i], orig[i])
		}
	}
}
