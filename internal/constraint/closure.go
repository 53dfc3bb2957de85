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
// once built), so the relaxation search's implication test and the verifier
// that then probes the same set share one computation; it is released with
// the set.
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
	sc := closureScratches.Get().(*closureScratch)
	defer closureScratches.Put(sc)
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

// closureScratch is what a Closure call works in besides its result: the
// equivalence classes by the kind of symbol they partition, the orbits met
// and the arguments of the SubAttrs members. Calls take it from a pool and
// every round overwrites it, so that a closure allocates only its result.
type closureScratch struct {
	cls    [template.KFunc + 1]classes
	orbits *Set
	subs   [][2]template.Sym
}

var closureScratches = sync.Pool{New: func() any { return &closureScratch{orbits: newSet(0)} }}

// Implies reports whether the closure of s contains c.
func Implies(s *Set, c C) bool {
	if s.Has(c) {
		return true
	}
	return Closure(s).Has(c)
}

// IsClosedUnder reports whether removing c from s leaves a set that still
// implies c — in that case s \ {c} is semantically the same set and the
// search can skip it.
func IsClosedUnder(s *Set, c C) bool {
	return Implies(s.Without(c), c)
}

// equivKinds pairs each equality kind with the kind of symbol it relates.
var equivKinds = [...]struct {
	kind Kind
	sym  template.SymKind
}{{RelEq, template.KRel}, {AttrsEq, template.KAttrs}, {PredEq, template.KPred}, {AggrEq, template.KFunc}}

// classes are the equivalence classes one equality kind induces on the
// symbols it mentions, members in symbol order. There are a handful of
// symbols per kind, so lookups scan.
type classes [][]template.Sym

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

// Unification is the symbol unification of §5.1: the classes into which the
// RelEq, AttrsEq, PredEq and AggrEq members of a closure partition the
// symbols, plus, for each relation class, the class of its relations' a_r —
// equal relations have equal attributes, so a_r follows r. Members are in
// symbol order and the first is the class's representative. The verifier,
// the SPES concretiser, discovery's coverage and triviality filters and the
// rewriter's resolver all read symbol classes from here.
type Unification struct {
	cl      *Set
	classes classes
}

// Unify unifies the symbols of cs's closure.
func Unify(cs *Set) Unification {
	u := Unification{cl: Closure(cs)}
	for _, e := range equivKinds {
		u.classes = equivClasses(u.classes, u.cl, e.kind)
	}
	for _, members := range u.classes {
		if members[0].Kind != template.KRel {
			continue
		}
		ar := make([]template.Sym, len(members))
		for i, r := range members {
			ar[i] = template.AttrsOf(r)
		}
		u.classes = append(u.classes, ar)
	}
	return u
}

// Rep returns s's representative; a symbol no equality mentions is its own.
func (u Unification) Rep(s template.Sym) template.Sym {
	if i := u.classes.index(s); i >= 0 {
		return u.classes[i][0]
	}
	return s
}

// Members returns s's class, or nil when no equality mentions s. The slice is
// shared and must not be modified.
func (u Unification) Members(s template.Sym) []template.Sym {
	if i := u.classes.index(s); i >= 0 {
		return u.classes[i]
	}
	return nil
}

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

// Sources returns the relations attribute list a reads from: the
// representative of each r with SubAttrs(x, a_r) in the closure and Rep(x) ==
// Rep(a), each once, in closure order.
func (u Unification) Sources(a template.Sym) []template.Sym {
	rep := u.Rep(a)
	var out []template.Sym
	for i := range u.cl.words {
		if u.cl.kindAt(i) != SubAttrs {
			continue
		}
		c := u.cl.At(i)
		if c.Syms[1].Kind != template.KAttrsOf || u.Rep(c.Syms[0]) != rep {
			continue
		}
		if r := u.Rep(template.Sym{Kind: template.KRel, ID: c.Syms[1].ID}); !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}
