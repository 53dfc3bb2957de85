package uexpr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wetune/internal/template"
)

// allKinds returns an expression holding every Expr, Bool and tuple kind,
// and a product holding every Factor kind whose nested terms bind variables.
func allKinds() (Expr, []Factor) {
	x := &TVar{ID: 1, Scope: []template.Sym{r(0), r(1)}}
	y := &TVar{ID: 2, Scope: []template.Sym{r(1)}}
	z := &TVar{ID: 3}
	ax := &TAttr{Attrs: a(0), T: x}
	e := &Add{Ts: []Expr{
		&Sum{Vars: []*TVar{x, y}, E: &Mul{Fs: []Expr{
			&Rel{Rel: r(0), T: x},
			&Bracket{B: &BEq{L: z, R: &TConcat{L: x, R: y}}},
			&Bracket{B: &BPred{Pred: p(0), T: ax}},
			&Not{E: &Bracket{B: &BIsNull{T: y}}},
			&Squash{E: &Rel{Rel: r(1), T: y}},
		}}},
		One,
	}}
	fs := []Factor{
		&Rel{Rel: r(0), T: z},
		&Bracket{B: &BEq{L: z, R: ax}},
		&NotNF{NF: &NF{Terms: []*Term{{Vars: []*TVar{x}, Factors: []Factor{
			&Bracket{B: &BPred{Pred: p(0), T: ax}},
		}}}}},
		&SquashNF{NF: &NF{Terms: []*Term{{Vars: []*TVar{y}, Factors: []Factor{
			&Bracket{B: &BIsNull{T: &TConcat{L: z, R: y}}},
		}}}}},
	}
	return e, fs
}

// dump renders a product exactly: factors in order, nested terms with their
// bound variables alpha-renamed and free ones by ID.
func dump(fs []Factor) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = renderFactor(f)
	}
	return strings.Join(parts, " * ")
}

// TestTraversalVisitsEveryPosition feeds every kind of every sort through a
// map that wraps each tuple argument it is offered and through a walk, and
// requires the walk to see exactly the positions the map offers — each tuple
// argument and each binder, in order — and the map to reach every one.
func TestTraversalVisitsEveryPosition(t *testing.T) {
	e, fs := allKinds()
	mark := a(9)
	var offered, walked []string
	wrap := mapper{
		tuple: func(t Tuple) Tuple {
			offered = append(offered, t.String())
			return &TAttr{Attrs: mark, T: t}
		},
		bind: func(vs []*TVar) { offered = append(offered, fmt.Sprint(vs)) },
	}
	walk := mapper{
		tuple: func(t Tuple) Tuple { walked = append(walked, t.String()); return t },
		bind:  func(vs []*TVar) { walked = append(walked, fmt.Sprint(vs)) },
	}
	unwrap := mapper{tuple: func(t Tuple) Tuple { return t.(*TAttr).T }}

	gotE := wrap.expr(e)
	if walk.expr(e) != e {
		t.Error("a walk must return the expression itself")
	}
	wantE := "(sum{t1,t2}(r0(a9(t1)) * [a9(t3) = a9((t1.t2))] * [p0(a9(a0(t1)))] * not([IsNull(a9(t2))]) * ||r1(a9(t2))||)) + (1)"
	if gotE.String() != wantE {
		t.Errorf("mapped expression\n  got  %s\n  want %s", gotE, wantE)
	}
	if back := unwrap.expr(gotE); back.String() != e.String() {
		t.Errorf("unwrapped expression %s, want %s", back, e)
	}

	gotF, _ := wrap.factors(fs)
	if out, ok := walk.factors(fs); ok || &out[0] != &fs[0] {
		t.Error("a walk must return the product itself")
	}
	if n := strings.Count(dump(gotF), mark.String()+"("); n != 5 {
		t.Errorf("mapped product %s wraps %d arguments, want 5", dump(gotF), n)
	}
	if back, _ := unwrap.factors(gotF); dump(back) != dump(fs) {
		t.Errorf("unwrapped product %s, want %s", dump(back), dump(fs))
	}

	want := []string{"[t1 t2]", "t1", "t3", "(t1.t2)", "a0(t1)", "t2", "t2",
		"t3", "t3", "a0(t1)", "[t1]", "a0(t1)", "[t2]", "(t3.t2)"}
	if fmt.Sprint(offered) != fmt.Sprint(want) || fmt.Sprint(walked) != fmt.Sprint(want) {
		t.Errorf("positions\n  map  %v\n  walk %v\n  want %v", offered, walked, want)
	}
}

// TestTraversalMapsEverySymbol checks ApplySyms reaches relations,
// predicates, attribute lists and binder scopes, merging scope entries.
func TestTraversalMapsEverySymbol(t *testing.T) {
	e, _ := allKinds()
	m := map[template.Sym]template.Sym{r(1): r(0), a(0): a(5), p(0): p(5)}
	got := ApplySyms(e, m)
	want := "(sum{t1,t2}(r0(t1) * [t3 = (t1.t2)] * [p5(a5(t1))] * not([IsNull(t2)]) * ||r0(t2)||)) + (1)"
	if got.String() != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	vars := got.(*Add).Ts[0].(*Sum).Vars
	if fmt.Sprint(vars[0].Scope, vars[1].Scope) != "[r0] [r0]" {
		t.Errorf("binder scopes %v %v, want [r0] [r0]", vars[0].Scope, vars[1].Scope)
	}
	if e.(*Add).Ts[1] != got.(*Add).Ts[1] {
		t.Error("an untouched subtree must be shared, not copied")
	}
}

// TestIdentityMapAllocatesNothing: a map that changes nothing returns its
// input pointer, and neither it nor the walks built on it allocate.
func TestIdentityMapAllocatesNothing(t *testing.T) {
	e, fs := allKinds()
	id := mapper{tuple: func(t Tuple) Tuple { return t }}
	x := fs[2].(*NotNF).NF.Terms[0].Vars[0]
	allocs := testing.AllocsPerRun(100, func() {
		if id.expr(e) != e {
			t.Fatal("identity map copied the expression")
		}
		if _, ok := id.factors(fs); ok {
			t.Fatal("identity map copied the product")
		}
		if maxVarID(e) != 3 || !factorUses(fs[2], x) || factorUses(fs[0], x) {
			t.Fatal("walk answered wrongly")
		}
	})
	if allocs != 0 {
		t.Errorf("identity map and walks: %v allocs per run, want 0", allocs)
	}
	if SubstTuple(e, 7, &TVar{ID: 8}) != e {
		t.Error("substituting an absent variable must return the expression itself")
	}
}

// refSubst is the single-variable factor substitution the traversal
// replaced: it always rebuilds, and stops at a term that binds id.
func refSubst(f Factor, id int, repl Tuple) Factor {
	var tup func(t Tuple) Tuple
	tup = func(t Tuple) Tuple {
		switch x := t.(type) {
		case *TVar:
			if x.ID == id {
				return repl
			}
			return x
		case *TAttr:
			return &TAttr{Attrs: x.Attrs, T: tup(x.T)}
		}
		c := t.(*TConcat)
		return &TConcat{L: tup(c.L), R: tup(c.R)}
	}
	nf := func(nf *NF) *NF {
		out := &NF{}
		for _, t := range nf.Terms {
			shadowed := false
			for _, v := range t.Vars {
				shadowed = shadowed || v.ID == id
			}
			if shadowed {
				out.Terms = append(out.Terms, t)
				continue
			}
			nt := &Term{Vars: t.Vars}
			for _, g := range t.Factors {
				nt.Factors = append(nt.Factors, refSubst(g, id, repl))
			}
			out.Terms = append(out.Terms, nt)
		}
		return out
	}
	switch x := f.(type) {
	case *Rel:
		return &Rel{Rel: x.Rel, T: tup(x.T)}
	case *Bracket:
		switch b := x.B.(type) {
		case *BEq:
			return &Bracket{B: &BEq{L: tup(b.L), R: tup(b.R)}}
		case *BPred:
			return &Bracket{B: &BPred{Pred: b.Pred, T: tup(b.T)}}
		}
		return &Bracket{B: &BIsNull{T: tup(x.B.(*BIsNull).T)}}
	case *NotNF:
		return &NotNF{NF: nf(x.NF)}
	}
	return &SquashNF{NF: nf(f.(*SquashNF).NF)}
}

// renameThroughTemporaries is fol's former alignment rename: b.Vars[p[i]]
// becomes a.Vars[i] one variable at a time, through temporaries.
func renameThroughTemporaries(a, b *Term, p []int) *Term {
	step := func(t *Term, id int, nv *TVar) *Term {
		nt := &Term{}
		for _, v := range t.Vars {
			if v.ID == id {
				v = nv
			}
			nt.Vars = append(nt.Vars, v)
		}
		for _, f := range t.Factors {
			nt.Factors = append(nt.Factors, refSubst(f, id, nv))
		}
		return nt
	}
	const tmp = 1 << 20
	cand := b
	for i := range p {
		cand = step(cand, b.Vars[p[i]].ID, &TVar{ID: tmp + i})
	}
	for i := range p {
		cand = step(cand, tmp+i, a.Vars[i])
	}
	return cand
}

func randTuple(rng *rand.Rand, depth int) Tuple {
	switch k := rng.Intn(4); {
	case depth == 0 || k < 2:
		return &TVar{ID: rng.Intn(8)}
	case k == 2:
		return &TAttr{Attrs: a(rng.Intn(3)), T: randTuple(rng, depth-1)}
	}
	return &TConcat{L: randTuple(rng, depth-1), R: randTuple(rng, depth-1)}
}

func randFactors(rng *rand.Rand, depth int) []Factor {
	fs := make([]Factor, 1+rng.Intn(3))
	for i := range fs {
		switch k := rng.Intn(6); {
		case k == 0:
			fs[i] = &Rel{Rel: r(rng.Intn(3)), T: randTuple(rng, 2)}
		case k == 1:
			fs[i] = &Bracket{B: &BEq{L: randTuple(rng, 2), R: randTuple(rng, 2)}}
		case k == 2:
			fs[i] = &Bracket{B: &BPred{Pred: p(0), T: randTuple(rng, 2)}}
		case k == 3 || depth == 0:
			fs[i] = &Bracket{B: &BIsNull{T: randTuple(rng, 2)}}
		default:
			nf := &NF{Terms: []*Term{{Vars: randVars(rng, 1+rng.Intn(2)), Factors: randFactors(rng, depth-1)}}}
			if k == 4 {
				fs[i] = &NotNF{NF: nf}
			} else {
				fs[i] = &SquashNF{NF: nf}
			}
		}
	}
	return fs
}

// randVars draws k distinct variables from the same small pool the tuples
// use, so nested terms rebind renamed variables.
func randVars(rng *rand.Rand, k int) []*TVar {
	vs := make([]*TVar, k)
	for i, id := range rng.Perm(8)[:k] {
		vs[i] = &TVar{ID: id, Scope: []template.Sym{r(id % 3)}}
	}
	return vs
}

// TestPropSimultaneousRenameMatchesTemporaries: one simultaneous rename
// equals the rename through temporaries fol did before, on random terms
// whose nested terms rebind some of the renamed variables.
func TestPropSimultaneousRenameMatchesTemporaries(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 0; n < 500; n++ {
		k := 1 + rng.Intn(3)
		a := &Term{Vars: randVars(rng, k)}
		b := &Term{Vars: randVars(rng, k), Factors: randFactors(rng, 2)}
		p := rng.Perm(k)

		ren := map[int]Tuple{}
		vars := append([]*TVar(nil), b.Vars...)
		for i := range p {
			ren[b.Vars[p[i]].ID] = a.Vars[i]
			vars[p[i]] = a.Vars[i]
		}
		got := &Term{Vars: vars, Factors: SubstFactors(b.Factors, ren)}
		want := renameThroughTemporaries(a, b, p)
		if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) || dump(got.Factors) != dump(want.Factors) {
			t.Fatalf("rename of %v -> %v (perm %v) over %s:\n  simultaneous %v %s\n  temporaries  %v %s",
				b.Vars, a.Vars, p, dump(b.Factors), got.Vars, dump(got.Factors), want.Vars, dump(want.Factors))
		}
	}
}
