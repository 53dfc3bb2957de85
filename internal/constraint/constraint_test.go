package constraint

import (
	"maps"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"wetune/internal/racetest"
	"wetune/internal/template"
)

func r(id int) template.Sym { return template.Sym{Kind: template.KRel, ID: id} }
func a(id int) template.Sym { return template.Sym{Kind: template.KAttrs, ID: id} }
func p(id int) template.Sym { return template.Sym{Kind: template.KPred, ID: id} }
func f(id int) template.Sym { return template.Sym{Kind: template.KFunc, ID: id} }

// ar is relation r's implicit all-attributes symbol a_r.
func ar(id int) template.Sym { return template.AttrsOf(r(id)) }

// joinInPair is the size-2 pair Sel(IJoin) => InSub(Sel, ·).
func joinInPair() (src, dest *template.Node) {
	src = template.Sel(p(0), a(0), template.Join(template.OpIJoin, a(1), a(2), template.Input(r(0)), template.Input(r(1))))
	dest = template.InSub(a(3), template.Sel(p(1), a(4), template.Input(r(2))), template.Input(r(3)))
	return src, dest
}

// joinInCStar is joinInPair's C*, from which the property tests below draw
// their sets: 105 members of every kind but AggrEq, the last 24 of them
// RefAttrs between the join's two lists.
func joinInCStar(tb testing.TB) []C {
	src, dest := joinInPair()
	cstar := Enumerate(src, dest).Items()
	if n := len(NewSet(cstar...).ByKind(RefAttrs)); len(cstar) != 105 || n != 24 {
		tb.Fatalf("C* of %s => %s: %d members, %d RefAttrs; want 105 and 24", src, dest, len(cstar), n)
	}
	return cstar
}

func TestNewCanonicalizesSymmetricKinds(t *testing.T) {
	c1 := New(RelEq, r(2), r(1))
	c2 := New(RelEq, r(1), r(2))
	if c1 != c2 {
		t.Fatalf("RelEq not canonicalized: %v vs %v", c1, c2)
	}
	// SubAttrs is ordered and must not be swapped.
	s1 := New(SubAttrs, a(2), a(1))
	s2 := New(SubAttrs, a(1), a(2))
	if s1 == s2 {
		t.Fatal("SubAttrs wrongly canonicalized")
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(New(RelEq, r(0), r(1)), New(RelEq, r(1), r(0)), New(Unique, r(0), a(0)))
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dedup)", s.Len())
	}
	if !s.Has(New(RelEq, r(0), r(1))) {
		t.Error("missing member")
	}
	w := s.Without(New(Unique, r(0), a(0)), nil)
	if w.Len() != 1 || w.Has(New(Unique, r(0), a(0))) {
		t.Error("Without failed")
	}
	if s.Len() != 2 {
		t.Error("Without mutated the receiver")
	}
}

func TestSetKeyOrderIndependent(t *testing.T) {
	s1 := NewSet(New(RelEq, r(0), r(1)), New(Unique, r(0), a(0)))
	s2 := NewSet(New(Unique, r(0), a(0)), New(RelEq, r(0), r(1)))
	if s1.Key() != s2.Key() {
		t.Fatalf("keys differ: %q vs %q", s1.Key(), s2.Key())
	}
}

func TestEnumerateFigure2(t *testing.T) {
	// Source: InSub_a0(InSub_a0(r0, r1), r2); dest: InSub_a1(r3, r4).
	src := template.InSub(a(0), template.InSub(a(0), template.Input(r(0)), template.Input(r(1))), template.Input(r(2)))
	dest := template.InSub(a(1), template.Input(r(3)), template.Input(r(4)))
	cs := Enumerate(src, dest)

	// The constraints of the paper's Figure 2 must all be present.
	needed := []C{
		New(RelEq, r(1), r(2)), // t2 = t2'
		New(RelEq, r(1), r(4)), // t2 = t4
		New(RelEq, r(0), r(3)), // t1 = t3
		New(AttrsEq, a(0), a(1)),
		New(SubAttrs, a(0), template.AttrsOf(r(0))), // c0 from t1
	}
	for _, c := range needed {
		if !cs.Has(c) {
			t.Errorf("C* missing %v", c)
		}
	}
}

func TestEnumerateExcludesDestOnly(t *testing.T) {
	src := template.Proj(a(0), template.Input(r(0)))
	dest := template.Proj(a(1), template.Input(r(1)))
	cs := Enumerate(src, dest)
	// Unique(r1, a1) involves only destination symbols: useless.
	if cs.Has(New(Unique, r(1), a(1))) {
		t.Error("dest-only constraint not excluded")
	}
	// Cross constraints must exist.
	if !cs.Has(New(RelEq, r(0), r(1))) || !cs.Has(New(AttrsEq, a(0), a(1))) {
		t.Error("cross constraints missing")
	}
}

// TestEnumerateAtMost: the bounded walk gives up exactly past its limit and
// otherwise builds Enumerate's set.
func TestEnumerateAtMost(t *testing.T) {
	src, dest := joinInPair()
	cstar := joinInCStar(t)
	if s := EnumerateAtMost(src, dest, len(cstar)-1); s != nil {
		t.Errorf("limit %d: got %d members, want nil", len(cstar)-1, s.Len())
	}
	if s := EnumerateAtMost(src, dest, len(cstar)); s == nil || !slices.Equal(s.Items(), cstar) {
		t.Errorf("limit %d: got %v, want C*", len(cstar), s)
	}
}

func TestClosureTransitivity(t *testing.T) {
	s := NewSet(New(RelEq, r(0), r(1)), New(RelEq, r(1), r(2)))
	cl := Closure(s)
	if !cl.Has(New(RelEq, r(0), r(2))) {
		t.Error("RelEq transitivity missing")
	}
}

func TestClosureCongruence(t *testing.T) {
	s := NewSet(
		New(RelEq, r(0), r(1)),
		New(Unique, r(0), a(0)),
		New(AttrsEq, a(0), a(1)),
	)
	cl := Closure(s)
	for _, want := range []C{
		New(Unique, r(1), a(0)),
		New(Unique, r(0), a(1)),
		New(Unique, r(1), a(1)),
	} {
		if !cl.Has(want) {
			t.Errorf("closure missing %v", want)
		}
	}
}

func TestClosureSubAttrs(t *testing.T) {
	s := NewSet(
		New(SubAttrs, a(0), a(1)),
		New(SubAttrs, a(1), a(2)),
		New(AttrsEq, a(0), a(3)),
	)
	cl := Closure(s)
	if !cl.Has(New(SubAttrs, a(0), a(2))) {
		t.Error("SubAttrs transitivity missing")
	}
	if !cl.Has(New(SubAttrs, a(3), a(1))) {
		t.Error("SubAttrs congruence under AttrsEq missing")
	}
}

func TestClosureAttrsOfUnderRelEq(t *testing.T) {
	s := NewSet(
		New(RelEq, r(0), r(1)),
		New(SubAttrs, a(0), template.AttrsOf(r(0))),
	)
	cl := Closure(s)
	if !cl.Has(New(SubAttrs, a(0), template.AttrsOf(r(1)))) {
		t.Error("SubAttrs should transfer to the equivalent relation's attrs")
	}
}

func TestImplies(t *testing.T) {
	s := NewSet(New(RelEq, r(0), r(1)), New(RelEq, r(1), r(2)), New(RelEq, r(0), r(2)))
	// r0=r2 is implied by the other two.
	if !Implies(s.Without(New(RelEq, r(0), r(2)), nil), New(RelEq, r(0), r(2))) {
		t.Error("transitively implied member not detected")
	}
	// In an equivalence triangle every edge is implied by the other two.
	if !Implies(s.Without(New(RelEq, r(0), r(1)), nil), New(RelEq, r(0), r(1))) {
		t.Error("triangle edge should be implied by the other two")
	}
	// A genuinely independent constraint is not implied.
	s2 := NewSet(New(RelEq, r(0), r(1)), New(RelEq, r(2), r(3)))
	if Implies(s2.Without(New(RelEq, r(2), r(3)), nil), New(RelEq, r(2), r(3))) {
		t.Error("independent constraint reported implied")
	}
	if Implies(NewSet(), New(RelEq, r(0), r(1))) {
		t.Error("empty set implies nothing")
	}
	// A SubAttrs cycle relates a symbol to itself only through a second
	// member of its class.
	cycle := NewSet(New(SubAttrs, a(0), a(1)), New(SubAttrs, a(1), a(0)))
	if Implies(cycle, New(SubAttrs, a(0), a(0))) {
		t.Error("transitivity derived SubAttrs(a0, a0)")
	}
	if !Implies(cycle.Union(NewSet(New(AttrsEq, a(0), a(2)))), New(SubAttrs, a(0), a(0))) {
		t.Error("congruence through a2 not followed")
	}
}

// TestUnification: each equality kind's classes list their members in symbol
// order and the least one represents them; a_r follows r; a symbol no
// equality mentions is its own representative with no class; Sources follows
// the closure's order, not the symbols'; Reps holds no identity entry.
func TestUnification(t *testing.T) {
	u := Unify(NewSet(
		New(RelEq, r(2), r(1)),
		New(AttrsEq, a(3), a(1)),
		New(AttrsEq, a(1), a(2)),
		New(PredEq, p(1), p(0)),
		New(AggrEq, f(2), f(1)),
		New(SubAttrs, a(3), ar(2)),
		New(SubAttrs, a(2), ar(0)),
		New(SubAttrs, a(4), ar(0)),
	))
	for _, tc := range []struct {
		sym, rep template.Sym
		members  []template.Sym
	}{
		{r(2), r(1), []template.Sym{r(1), r(2)}},
		{r(1), r(1), []template.Sym{r(1), r(2)}},
		{a(2), a(1), []template.Sym{a(1), a(2), a(3)}},
		{p(1), p(0), []template.Sym{p(0), p(1)}},
		{f(2), f(1), []template.Sym{f(1), f(2)}},
		{ar(2), ar(1), []template.Sym{ar(1), ar(2)}},
		{r(0), r(0), nil},
		{ar(0), ar(0), nil},
		{a(4), a(4), nil},
	} {
		if got := u.Rep(tc.sym); got != tc.rep {
			t.Errorf("Rep(%v) = %v, want %v", tc.sym, got, tc.rep)
		}
		if got := u.Members(tc.sym); !slices.Equal(got, tc.members) {
			t.Errorf("Members(%v) = %v, want %v", tc.sym, got, tc.members)
		}
	}
	for _, tc := range []struct {
		attrs template.Sym
		want  []template.Sym
	}{
		{a(2), []template.Sym{r(1), r(0)}},
		{a(4), []template.Sym{r(0)}},
		{a(0), nil},
	} {
		if got := u.Sources(tc.attrs); !slices.Equal(got, tc.want) {
			t.Errorf("Sources(%v) = %v, want %v", tc.attrs, got, tc.want)
		}
	}
	want := map[template.Sym]template.Sym{
		r(2): r(1), ar(2): ar(1), a(2): a(1), a(3): a(1), p(1): p(0), f(2): f(1),
	}
	if got := u.Reps(); !maps.Equal(got, want) {
		t.Errorf("Reps() = %v, want %v", got, want)
	}
}

func TestEnumerateCounts(t *testing.T) {
	src := template.InSub(a(0), template.Input(r(0)), template.Input(r(1)))
	dest := template.Input(r(2))
	cs := Enumerate(src, dest)
	if cs.Len() == 0 {
		t.Fatal("no constraints enumerated")
	}
	// Every constraint mentions at least one source symbol.
	srcSyms := map[template.Sym]bool{}
	for _, s := range src.Symbols() {
		srcSyms[s] = true
		if s.Kind == template.KRel {
			srcSyms[template.AttrsOf(s)] = true
		}
	}
	for _, c := range cs.Items() {
		found := false
		for i := 0; i < c.Kind.Arity(); i++ {
			s := c.Syms[i]
			if srcSyms[s] {
				found = true
			}
			if s.Kind == template.KAttrsOf && srcSyms[template.Sym{Kind: template.KRel, ID: s.ID}] {
				found = true
			}
		}
		if !found {
			t.Errorf("useless constraint enumerated: %v", c)
		}
	}
}

// closeFresh closes a fresh copy of cstar — a set keeps its closure once
// computed — and reports whether the closure kept every member.
func closeFresh(cstar []C) bool { return Closure(NewSet(cstar...)).Len() >= len(cstar) }

// BenchmarkClosure closes the candidate set C* of the size-2 pair
// Sel(IJoin) => InSub(Sel, ·) — every equality present, so every class is as
// large and every orbit as wide as size 2 gets.
func BenchmarkClosure(b *testing.B) {
	cstar := joinInCStar(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !closeFresh(cstar) {
			b.Fatal("closure lost constraints")
		}
	}
}

// TestClosureAllocBudget pins what BenchmarkClosure's op allocates: the new
// set and the closure it builds, with the working storage taken from the
// pool.
func TestClosureAllocBudget(t *testing.T) {
	if racetest.Enabled {
		t.Skip("the race detector allocates on its own, and sync.Pool drops scratch under it")
	}
	// Collector off while counting: a collection empties the sync.Pools,
	// and their refill would count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cstar := joinInCStar(t)
	if !closeFresh(cstar) {
		t.Fatal("closure lost constraints")
	}
	if got := testing.AllocsPerRun(20, func() { closeFresh(cstar) }); got != 8 {
		t.Errorf("Closure of a fresh C*: %v allocations, want 8", got)
	}
}

// TestSetAgainstMapModel drives Set through random constraint lists beside
// the plain model it replaced — a slice for order, a map[C]bool for
// membership. The symbol IDs straddle what a packed index word holds (12
// bits), and a wide ID is always drawn with its low bits equal to a narrow
// one's: a key that truncated instead of falling back would merge the two.
func TestSetAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ids := []int{0, 1, 2, 3, 4095, 4096, 4097, 4096 + 2, 1<<20 + 1, 1<<32 + 3, -1, -4096}
	kinds := []Kind{RelEq, AttrsEq, PredEq, SubAttrs, RefAttrs, Unique, NotNull, AggrEq, Kind(8), Kind(8 + int(RelEq))}
	draw := func() C {
		var syms [4]template.Sym
		for i := range syms {
			syms[i] = template.Sym{Kind: template.SymKind(rng.Intn(5)), ID: ids[rng.Intn(len(ids))]}
		}
		k := kinds[rng.Intn(len(kinds))]
		return New(k, syms[:k.Arity()]...)
	}
	type model struct {
		order []C
		in    map[C]bool
	}
	build := func(cs []C) model {
		m := model{in: map[C]bool{}}
		for _, c := range cs {
			if !m.in[c] {
				m.in[c] = true
				m.order = append(m.order, c)
			}
		}
		return m
	}
	check := func(what string, s *Set, m model, probes []C) {
		t.Helper()
		if got := s.Items(); !slices.Equal(got, m.order) || s.Len() != len(m.order) {
			t.Fatalf("%s: Items = %v (Len %d), want %v", what, got, s.Len(), m.order)
		}
		for _, c := range probes {
			if s.Has(c) != m.in[c] {
				t.Fatalf("%s: Has(%v) = %v, want %v", what, c, s.Has(c), m.in[c])
			}
		}
		strs := make([]string, len(m.order))
		for i, c := range m.order {
			strs[i] = c.String()
		}
		sort.Strings(strs)
		if want := strings.Join(strs, ";"); s.Key() != want {
			t.Fatalf("%s: Key = %q, want %q", what, s.Key(), want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		cs := make([]C, rng.Intn(40))
		for i := range cs {
			cs[i] = draw()
		}
		other := make([]C, rng.Intn(20))
		for i := range other {
			other[i] = draw()
		}
		probes := append(append([]C{draw(), draw()}, cs...), other...)
		s, m := NewSet(cs...), build(cs)
		check("NewSet", s, m, probes)
		check("Union", s.Union(NewSet(other...)), build(append(slices.Clone(cs), other...)), probes)
		// into holds other members and a memoized closure, which rebuilding
		// it must drop.
		into := NewSet(other...)
		Closure(into)
		for _, c := range probes[:4] {
			want := build(slices.DeleteFunc(slices.Clone(cs), func(x C) bool { return x == c }))
			check("Without", s.Without(c, nil), want, probes)
			w := s.Without(c, into)
			check("Without into a used set", w, want, probes)
			if got, fresh := Closure(w).Key(), Closure(NewSet(w.Items()...)).Key(); got != fresh {
				t.Fatalf("closure of a rebuilt set is %q, want %q", got, fresh)
			}
		}
		check("receiver afterwards", s, m, probes)
	}
}

// TestClosureOverWideSymbols: a set whose symbols do not fit a packed word
// closes like the same set renamed into the packed range and renamed back.
// Some wide IDs share their low 12 bits with a narrow ID of the same set, so
// a closure that truncated an ID would merge two symbols and derive more.
func TestClosureOverWideSymbols(t *testing.T) {
	cstar := joinInCStar(t)
	// IDs 0 and 1 stay; 2 shares its low bits with 0, 3 with 1 (negative).
	wideID := map[int]int{0: 0, 1: 1, 2: 1 << 12, 3: -(1 << 12) + 1}
	toWide, toNarrow := map[template.Sym]template.Sym{}, map[template.Sym]template.Sym{}
	for k := template.KRel; k <= template.KFunc; k++ {
		for id, wide := range wideID {
			n, w := template.Sym{Kind: k, ID: id}, template.Sym{Kind: k, ID: wide}
			toWide[n], toNarrow[w] = w, n
		}
	}
	rename := func(s *Set, m map[template.Sym]template.Sym) *Set {
		out := NewSet()
		for _, c := range s.Items() {
			out.add(c.Rename(m))
		}
		return out
	}
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		var cs []C
		for _, c := range cstar {
			if trial == 0 || rng.Intn(3) == 0 {
				cs = append(cs, c.Rename(toWide))
			}
		}
		wide := NewSet(cs...)
		if len(wide.wide) == 0 && trial == 0 {
			t.Fatal("no member of the wide set is wide: the test checks nothing")
		}
		got, want := Closure(wide), rename(Closure(rename(wide, toNarrow)), toWide)
		if got.Len() != want.Len() {
			t.Fatalf("trial %d: closure of %v has %d members, renamed closure %d", trial, wide, got.Len(), want.Len())
		}
		for _, c := range want.Items() {
			if !got.Has(c) {
				t.Fatalf("trial %d: closure of %v misses %v", trial, wide, c)
			}
		}
	}
}

// TestSetAllocations: Items is one allocation (the rewrite path calls it per
// matched candidate), Key allocates only its string, and
// Without one block of words and table, or nothing when it rebuilds a set of
// the same size.
func TestSetAllocations(t *testing.T) {
	cstar := joinInCStar(t)
	s := NewSet(cstar[len(cstar)-60:]...)
	c := s.At(30)
	into := s.Without(c, nil)
	for name, want := range map[string]struct {
		allocs float64
		f      func()
	}{
		"Items":        {1, func() { _ = s.Items() }},
		"Key":          {1, func() { _ = s.Key() }},
		"Without":      {2, func() { _ = s.Without(c, nil) }},
		"Without into": {0, func() { _ = s.Without(c, into) }},
	} {
		if got := testing.AllocsPerRun(50, want.f); got != want.allocs {
			t.Errorf("%s: %v allocations, want %v", name, got, want.allocs)
		}
	}
}

// TestClosureConcurrent: closures computed at once on several goroutines,
// which share the pooled working storage, equal those computed one at a
// time.
func TestClosureConcurrent(t *testing.T) {
	cstar := joinInCStar(t)
	rng := rand.New(rand.NewSource(40))
	sets := make([][]C, 40)
	want := make([]string, len(sets))
	for i := range sets {
		for _, c := range cstar {
			if rng.Intn(2) == 0 {
				sets[i] = append(sets[i], c)
			}
		}
		want[i] = Closure(NewSet(sets[i]...)).Key()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sets {
				if got := Closure(NewSet(sets[i]...)).Key(); got != want[i] {
					t.Errorf("set %d: concurrent closure differs", i)
				}
			}
		}()
	}
	wg.Wait()
}

// closureResidual is the residual read from the closure itself: its
// non-equality members renamed to the representatives of its own classes,
// each once, in closure order.
func closureResidual(cl *Set) *Set {
	reps := Unify(cl).Reps()
	out := NewSet()
	for _, c := range cl.Items() {
		if _, eq := c.Kind.equated(); !eq {
			out.add(c.Rename(reps))
		}
	}
	return out
}

// closureSources is Unification.Sources read from the closure.
func closureSources(cl *Set, a template.Sym) []template.Sym {
	u := Unify(cl)
	var out []template.Sym
	for _, c := range cl.ByKind(SubAttrs) {
		if c.Syms[1].Kind != template.KAttrsOf || u.Rep(c.Syms[0]) != u.Rep(a) {
			continue
		}
		if r := u.Rep(template.Sym{Kind: template.KRel, ID: c.Syms[1].ID}); !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// TestRepresentativeFormMatchesClosure draws random sets over a few symbols
// of every kind — reflexive equalities, SubAttrs loops and a_r in every
// position included — and requires Implies to answer Closure(s).Has(c) for
// every constraint over those symbols, Unify to give the closure's classes
// and residual member for member, Sources the closure's answer, and Key to
// be equal exactly where the closures are.
func TestRepresentativeFormMatchesClosure(t *testing.T) {
	syms := []template.Sym{r(0), r(1), r(2), a(0), a(1), a(2), a(3), ar(0), ar(1), p(0), p(1), f(0), f(1)}
	var universe []C
	for _, x := range syms {
		for _, y := range syms {
			for _, k := range []Kind{RelEq, AttrsEq, PredEq, AggrEq, SubAttrs, Unique, NotNull} {
				universe = append(universe, New(k, x, y))
			}
			universe = append(universe, New(RefAttrs, x, a(0), y, a(1)))
		}
	}
	wellKinded := func(c C) bool {
		switch c.Kind {
		case RelEq, AttrsEq, PredEq, AggrEq:
			sym, _ := c.Kind.equated()
			return c.Syms[0].Kind == sym && c.Syms[1].Kind == sym
		case SubAttrs:
			return c.Syms[0].Kind != template.KRel && c.Syms[1].Kind != template.KRel
		case Unique, NotNull, RefAttrs:
			return c.Syms[0].Kind == template.KRel && c.Syms[1].Kind == template.KAttrs
		}
		return false
	}
	// Members are mostly well-kinded; a tenth come from anywhere but an
	// equality between symbols of another kind, which nothing builds.
	var typed, any []C
	for _, c := range universe {
		if _, eq := c.Kind.equated(); !eq || wellKinded(c) {
			any = append(any, c)
		}
		if wellKinded(c) {
			typed = append(typed, c)
		}
	}
	rng := rand.New(rand.NewSource(36))
	formOf, closureOf := map[string]string{}, map[string]string{}
	for trial := 0; trial < 1000; trial++ {
		var cs []C
		for n := 1 + rng.Intn(12); len(cs) < n; {
			if trial%10 == 0 {
				cs = append(cs, any[rng.Intn(len(any))])
			} else {
				cs = append(cs, typed[rng.Intn(len(typed))])
			}
		}
		s := NewSet(cs...)
		cl := Closure(NewSet(cs...))
		for _, c := range universe {
			if got, want := Implies(s, c), cl.Has(c); got != want {
				t.Fatalf("Implies(%v, %v) = %v, closure says %v", s, c, got, want)
			}
		}
		u, ref := Unify(s), Unify(cl)
		if !maps.Equal(u.Reps(), ref.Reps()) {
			t.Fatalf("%v: Reps %v, closure's %v", s, u.Reps(), ref.Reps())
		}
		for _, x := range syms {
			if !slices.Equal(u.Members(x), ref.Members(x)) {
				t.Fatalf("%v: Members(%v) %v, closure's %v", s, x, u.Members(x), ref.Members(x))
			}
		}
		if got, want := u.Residual().String(), closureResidual(cl).String(); got != want {
			t.Fatalf("%v: residual\n  %s\nclosure's\n  %s", s, got, want)
		}
		for _, x := range syms {
			if got, want := u.Sources(x), closureSources(cl, x); !slices.Equal(got, want) {
				t.Fatalf("%v: Sources(%v) %v, closure's %v", s, x, got, want)
			}
		}
		key, clKey := u.Key(), cl.Key()
		if prev, ok := formOf[clKey]; ok && prev != key {
			t.Fatalf("%v: one closure, keys %q and %q", s, prev, key)
		}
		if prev, ok := closureOf[key]; ok && prev != clKey {
			t.Fatalf("%v: key %q for closures %q and %q", s, key, prev, clKey)
		}
		formOf[clKey], closureOf[key] = key, clKey
	}
}
