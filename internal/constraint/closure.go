package constraint

import (
	"slices"
	"sync"

	"wetune/internal/template"
)

// Closure computes the implication closure of a constraint set (§4.3): the
// smallest superset closed under the derivation rules below. The rule search
// skips subsets that are not closures, because removing a constraint that the
// remainder still implies yields the same semantic set.
//
// Derivation rules:
//
//	RelEq, AttrsEq, PredEq, AggrEq are symmetric and transitive;
//	RelEq(r1,r2)                       => AttrsEq(a_r1, a_r2) (internal);
//	AttrsEq(a,b), SubAttrs(a,c)        => SubAttrs(b,c);
//	AttrsEq(b,c), SubAttrs(a,b)        => SubAttrs(a,c);
//	SubAttrs(a,b), SubAttrs(b,c)       => SubAttrs(a,c);
//	RelEq(r,r'), Unique(r,a)           => Unique(r',a); same for NotNull;
//	AttrsEq(a,a'), Unique(r,a)         => Unique(r,a'); same for NotNull;
//	RelEq / AttrsEq congruence on every RefAttrs argument.
//
// A set's closure is computed once and kept with the set (sets do not change
// once built). The relaxation search and the verifier never build it: they
// read the set's representative form through Implies and Unify, which answer
// the same questions from the generators. Closure is what those two are
// tested against, and what the SPES concretiser reads.
func Closure(s *Set) *Set {
	if cl := s.closure.Load(); cl != nil {
		return cl
	}
	// A closure is typically up to twice its generators; sizing for that
	// spares the table its growth steps.
	out := newSet(2 * s.Len())
	for i := range s.words {
		out.add(s.At(i))
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	cls, orbits := &sc.cls, sc.orbits
	for before := -1; out.Len() != before; {
		before = out.Len()

		for _, e := range equivKinds {
			cls[e.sym] = equivClasses(cls[e.sym][:0], out, e.kind)
			// Transitivity of the equivalences.
			for _, members := range cls[e.sym] {
				for i := range members {
					for j := i + 1; j < len(members); j++ {
						out.add(New(e.kind, members[i], members[j]))
					}
				}
			}
		}
		// a_r1 == a_r2 when r1 == r2.
		ar := cls[template.KAttrsOf][:0]
		for _, members := range cls[template.KRel] {
			ar = ar.open()
			for _, r := range members {
				ar[len(ar)-1] = append(ar[len(ar)-1], template.AttrsOf(r))
			}
		}
		cls[template.KAttrsOf] = ar

		// Congruence: rewrite each constraint's symbols across their
		// equivalence classes, first argument slowest. Constraints that
		// differ only within classes have the same variants; the first of
		// them adds them all.
		orbits.clear()
		for ci, n := 0, out.Len(); ci < n; ci++ {
			c := out.At(ci)
			arity := c.Kind.Arity()
			var variants [4][]template.Sym
			orbit := C{Kind: c.Kind}
			for i := 0; i < arity; i++ {
				variants[i] = c.Syms[i : i+1] // alone, unless in a class
				if k := cls[c.Syms[i].Kind].index(c.Syms[i]); k >= 0 {
					variants[i] = cls[c.Syms[i].Kind][k]
				}
				orbit.Syms[i] = variants[i][0]
			}
			if orbit = orbit.canonical(); orbits.Has(orbit) {
				continue
			}
			orbits.add(orbit)
			var at [4]int
			for more := true; more; {
				v := C{Kind: c.Kind}
				for i := 0; i < arity; i++ {
					v.Syms[i] = variants[i][at[i]]
				}
				out.add(v.canonical())
				more = false
				for i := arity - 1; i >= 0 && !more; i-- {
					if at[i]++; at[i] < len(variants[i]) {
						more = true
					} else {
						at[i] = 0
					}
				}
			}
		}

		// SubAttrs transitivity.
		sc.subs = sc.subs[:0]
		for i := range out.words {
			if out.kindAt(i) == SubAttrs {
				c := out.At(i)
				sc.subs = append(sc.subs, [2]template.Sym{c.Syms[0], c.Syms[1]})
			}
		}
		for _, c1 := range sc.subs {
			for _, c2 := range sc.subs {
				if c1[1] == c2[0] && c1[0] != c2[1] {
					out.add(New(SubAttrs, c1[0], c2[1]))
				}
			}
		}
	}
	out.closure.Store(out)
	s.closure.Store(out)
	return out
}

// scratch is what Closure, Implies and Unify work in besides their results:
// classes, SubAttrs arguments, a set of members under derivation and the
// orbits met. Calls take it from a pool and overwrite it, so that a closure
// allocates only its result and an implication test nothing.
type scratch struct {
	cls     [template.KFunc + 1]classes // Closure's classes, by the kind of symbol
	form    classes                     // Implies' classes, every kind in one
	set     *Set
	orbits  *Set
	subs    [][2]template.Sym
	reached []template.Sym
}

var scratches = sync.Pool{New: func() any { return &scratch{set: newSet(0), orbits: newSet(0)} }}

// Implies reports whether the closure of s contains c. It reads s's
// representative form and builds no closure. Every equality relates two
// symbols of the kind it names — C* and the rule library build no other —
// so congruence never merges two classes: the classes of s's own equalities
// are the closure's, and
//
//   - an equality holds between any two members of one class, a member and
//     itself included;
//   - Unique, NotNull and RefAttrs hold where a member of the kind does,
//     modulo the classes;
//   - SubAttrs(x, y) holds where x's class reaches y's along the SubAttrs
//     members; a path back to x's own class derives SubAttrs(x, x) only
//     when the class has a second member, since transitivity never relates
//     a symbol to itself.
func Implies(s *Set, c C) bool {
	if s.Has(c) {
		return true
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	sc.form = unify(sc.form[:0], s)
	cls := sc.form
	if sym, ok := c.Kind.equated(); ok {
		i := cls.index(c.Syms[0])
		return c.Syms[0].Kind == sym && i >= 0 && i == cls.index(c.Syms[1])
	}
	if c.Kind == SubAttrs {
		return sc.reaches(s, cls, c.Syms[0], c.Syms[1])
	}
	want := cls.rename(c)
	for i := range s.words {
		if s.kindAt(i) == c.Kind && cls.rename(s.At(i)) == want {
			return true
		}
	}
	return false
}

// reaches reports whether the closure of s, whose classes are cls, holds
// SubAttrs(x, y) though s does not: whether a path of s's SubAttrs members,
// taken between representatives, leads from x's class to y's.
func (sc *scratch) reaches(s *Set, cls classes, x, y template.Sym) bool {
	if x == y && len(cls.members(x)) < 2 {
		return false
	}
	sc.subs = sc.subs[:0]
	for i := range s.words {
		if s.kindAt(i) == SubAttrs {
			c := s.At(i)
			sc.subs = append(sc.subs, [2]template.Sym{cls.rep(c.Syms[0]), cls.rep(c.Syms[1])})
		}
	}
	from, to := cls.rep(x), cls.rep(y)
	reached := sc.reached[:0]
	defer func() { sc.reached = reached }()
	for i := -1; i < len(reached); i++ {
		at := from
		if i >= 0 {
			at = reached[i]
		}
		for _, e := range sc.subs {
			if e[0] != at || slices.Contains(reached, e[1]) {
				continue
			}
			if e[1] == to {
				return true
			}
			reached = append(reached, e[1])
		}
	}
	return false
}

// equivKinds pairs each equality kind with the kind of symbol it relates.
var equivKinds = [...]struct {
	kind Kind
	sym  template.SymKind
}{{RelEq, template.KRel}, {AttrsEq, template.KAttrs}, {PredEq, template.KPred}, {AggrEq, template.KFunc}}

// equated returns the kind of symbol the equality kind k relates; ok is
// false when k is not an equality.
func (k Kind) equated() (sym template.SymKind, ok bool) {
	for _, e := range equivKinds {
		if e.kind == k {
			return e.sym, true
		}
	}
	return 0, false
}

// classes are the equivalence classes equalities induce on the symbols they
// mention, members in symbol order. There are a handful of symbols per kind,
// so lookups scan.
type classes [][]template.Sym

// unify appends to cls the classes of s's equalities, kind after kind, and
// then for each relation class the class of its relations' a_r: equal
// relations have equal attributes, so a_r follows r.
func unify(cls classes, s *Set) classes {
	for _, e := range equivKinds {
		cls = equivClasses(cls, s, e.kind)
	}
	for i, n := 0, len(cls); i < n; i++ {
		if cls[i][0].Kind != template.KRel {
			continue
		}
		cls = cls.open()
		for _, r := range cls[i] {
			cls[len(cls)-1] = append(cls[len(cls)-1], template.AttrsOf(r))
		}
	}
	return cls
}

// equivClasses appends the classes kind k induces on s to cls, in the storage
// past its end if there is some. Classes already in cls hold symbols of other
// kinds, which k's members never equal.
func equivClasses(cls classes, s *Set, k Kind) classes {
	for i := range s.words {
		if s.kindAt(i) != k {
			continue
		}
		c := s.At(i)
		a, b := cls.index(c.Syms[0]), cls.index(c.Syms[1])
		switch {
		case a < 0 && b < 0 && c.Syms[0] == c.Syms[1]:
			cls = cls.open(c.Syms[0])
		case a < 0 && b < 0:
			cls = cls.open(c.Syms[0], c.Syms[1])
		case a < 0:
			cls[b] = append(cls[b], c.Syms[0])
		case b < 0:
			cls[a] = append(cls[a], c.Syms[1])
		case a != b:
			last := len(cls) - 1
			cls[a] = append(cls[a], cls[b]...)
			// The last class takes b's place; b's storage goes past the end.
			cls[b], cls[last] = cls[last], cls[b]
			cls = cls[:last]
		}
	}
	for _, members := range cls {
		for i := 1; i < len(members); i++ {
			for j := i; j > 0 && less(members[j], members[j-1]); j-- {
				members[j], members[j-1] = members[j-1], members[j]
			}
		}
	}
	return cls
}

// open appends a class holding members, in the storage past the end if
// there is some. Every slot up to cap(cls) holds storage of its own.
func (cls classes) open(members ...template.Sym) classes {
	if n := len(cls); n < cap(cls) {
		cls = cls[:n+1]
		cls[n] = append(cls[n][:0], members...)
		return cls
	}
	return append(cls, append(make([]template.Sym, 0, 4), members...))
}

// index returns the class holding s, or -1.
func (cls classes) index(s template.Sym) int {
	for i, members := range cls {
		for _, m := range members {
			if m == s {
				return i
			}
		}
	}
	return -1
}

// members returns s's class, or nil when no equality mentions s.
func (cls classes) members(s template.Sym) []template.Sym {
	if i := cls.index(s); i >= 0 {
		return cls[i]
	}
	return nil
}

// rep returns s's representative, the first member of its class; a symbol no
// equality mentions is its own.
func (cls classes) rep(s template.Sym) template.Sym {
	if m := cls.members(s); m != nil {
		return m[0]
	}
	return s
}

// rename maps c's arguments to their representatives.
func (cls classes) rename(c C) C {
	for i := range c.Syms[:c.Kind.Arity()] {
		c.Syms[i] = cls.rep(c.Syms[i])
	}
	return c.canonical()
}

// Unification is the symbol unification of §5.1, read from a constraint
// set's representative form: the classes into which its RelEq, AttrsEq,
// PredEq and AggrEq members partition the symbols, plus, for each relation
// class, the class of its relations' a_r; and the residual, every other
// member of the set's closure renamed to representatives. Class members are
// in symbol order and the first is the class's representative. The
// verifier, the SPES concretiser, discovery's coverage and triviality
// filters and the rewriter's resolver all read symbol classes from here.
type Unification struct {
	classes  classes
	residual *Set
}

// Unify unifies the symbols of cs and derives its residual, building no
// closure. The classes are those of cs's own equalities, in the order the
// closure's equalities give them. The residual holds cs's non-equality
// members renamed, each once, in cs's order, followed by the SubAttrs members
// the closure derives and renaming leaves new, in the closure's derivation
// order: the residual is, member for member, the closure's non-equality
// members renamed and deduplicated. Like Implies, Unify relies on every
// equality relating two symbols of the kind it names.
func Unify(cs *Set) Unification {
	u := Unification{classes: unify(nil, cs), residual: newSet(cs.Len())}
	for i := range cs.words {
		if _, eq := cs.kindAt(i).equated(); !eq {
			u.residual.add(u.classes.rename(cs.At(i)))
		}
	}
	u.deriveSubAttrs(cs)
	return u
}

// deriveSubAttrs appends to the residual the SubAttrs members the closure of
// cs derives, renamed, in the order it derives them. Congruence variants
// rename to a member already present, so only transitivity makes new
// residual members, and only from SubAttrs members. The closure's SubAttrs
// steps are therefore run alone, in its loop order: each orbit's variants,
// then transitivity, until a round adds nothing.
func (u Unification) deriveSubAttrs(cs *Set) {
	if !u.chains() {
		return
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	subs := sc.set
	subs.clear()
	for i := range cs.words {
		if cs.kindAt(i) == SubAttrs {
			subs.add(cs.At(i))
		}
	}
	given := subs.Len()
	for before := -1; subs.Len() != before; {
		before = subs.Len()
		sc.orbits.clear()
		for i, n := 0, subs.Len(); i < n; i++ {
			c := subs.At(i)
			xs, ys := c.Syms[0:1], c.Syms[1:2] // alone, unless in a class
			if m := u.classes.members(c.Syms[0]); m != nil {
				xs = m
			}
			if m := u.classes.members(c.Syms[1]); m != nil {
				ys = m
			}
			if orbit := New(SubAttrs, xs[0], ys[0]); !sc.orbits.Has(orbit) {
				sc.orbits.add(orbit)
				for _, x := range xs {
					for _, y := range ys {
						subs.add(New(SubAttrs, x, y))
					}
				}
			}
		}
		sc.subs = sc.subs[:0]
		for i := range subs.words {
			c := subs.At(i)
			sc.subs = append(sc.subs, [2]template.Sym{c.Syms[0], c.Syms[1]})
		}
		for _, c1 := range sc.subs {
			for _, c2 := range sc.subs {
				if c1[1] == c2[0] && c1[0] != c2[1] {
					subs.add(New(SubAttrs, c1[0], c2[1]))
				}
			}
		}
	}
	for i := given; i < subs.Len(); i++ {
		u.residual.add(u.classes.rename(subs.At(i)))
	}
}

// chains reports whether two SubAttrs members of the residual chain through
// a middle class, X ⊆ Y and Y ⊆ Z with X ≠ Y and Y ≠ Z. Every member the
// closure derives by transitivity renames to one of the two it joins unless
// they chain so, so without such a pair there is nothing to derive.
func (u Unification) chains() bool {
	r := u.residual
	for i := range r.words {
		if r.kindAt(i) != SubAttrs {
			continue
		}
		if c1 := r.At(i); c1.Syms[0] != c1.Syms[1] {
			for j := range r.words {
				if c2 := r.At(j); r.kindAt(j) == SubAttrs && c2.Syms[0] == c1.Syms[1] && c2.Syms[1] != c2.Syms[0] {
					return true
				}
			}
		}
	}
	return false
}

// Rep returns s's representative; a symbol no equality mentions is its own.
func (u Unification) Rep(s template.Sym) template.Sym { return u.classes.rep(s) }

// Members returns s's class, or nil when no equality mentions s. The slice is
// shared and must not be modified.
func (u Unification) Members(s template.Sym) []template.Sym { return u.classes.members(s) }

// Reps maps every symbol that is not its class's representative to the
// representative: the renaming template.Node.Substitute, uexpr.ApplySyms and
// C.Rename take.
func (u Unification) Reps() map[template.Sym]template.Sym {
	reps := map[template.Sym]template.Sym{}
	for _, members := range u.classes {
		for _, m := range members[1:] {
			reps[m] = members[0]
		}
	}
	return reps
}

// Residual returns the non-equality members of the closure with every symbol
// renamed to its representative, each once, in closure order: the facts the
// equalities leave to state once they are substituted into the templates.
// The set is shared and must not be modified.
func (u Unification) Residual() *Set { return u.residual }

// Key identifies the closure the unification was read from: its equality
// classes, each as the equalities of its members with the representative
// (the a_r classes follow from the relation classes), and its residual,
// sorted and joined like Set.Key. Two sets have equal keys exactly when
// their closures are equal.
func (u Unification) Key() string {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	facts := sc.set
	facts.clear()
	for _, members := range u.classes {
		for _, e := range equivKinds {
			if e.sym != members[0].Kind {
				continue
			}
			for _, m := range members {
				facts.add(New(e.kind, members[0], m))
			}
		}
	}
	for i := range u.residual.words {
		facts.add(u.residual.At(i))
	}
	return facts.Key()
}

// Sources returns the relations attribute list a reads from: the
// representative of each r with SubAttrs(x, a_r) in the closure and Rep(x) ==
// Rep(a), each once, in closure order.
func (u Unification) Sources(a template.Sym) []template.Sym {
	rep := u.Rep(a)
	var out []template.Sym
	for i := range u.residual.words {
		if u.residual.kindAt(i) != SubAttrs {
			continue
		}
		if c := u.residual.At(i); c.Syms[0] == rep && c.Syms[1].Kind == template.KAttrsOf {
			out = append(out, template.Sym{Kind: template.KRel, ID: c.Syms[1].ID})
		}
	}
	return out
}
