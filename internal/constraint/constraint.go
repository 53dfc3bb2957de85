// Package constraint implements WeTune's constraint language (§4.2): the
// predicates that relate symbols of a source and destination template, the
// exhaustive enumeration of the candidate set C*, and the implication
// ("closure") reasoning used to prune the search for most-relaxed sets.
package constraint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"wetune/internal/template"
)

// Kind identifies a constraint predicate.
type Kind int

// Constraint kinds. AggrEq is the §5.2 extension for aggregate functions.
const (
	RelEq Kind = iota
	AttrsEq
	PredEq
	SubAttrs
	RefAttrs
	Unique
	NotNull
	AggrEq
)

func (k Kind) String() string {
	switch k {
	case RelEq:
		return "RelEq"
	case AttrsEq:
		return "AttrsEq"
	case PredEq:
		return "PredEq"
	case SubAttrs:
		return "SubAttrs"
	case RefAttrs:
		return "RefAttrs"
	case Unique:
		return "Unique"
	case NotNull:
		return "NotNull"
	case AggrEq:
		return "AggrEq"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Arity returns the number of symbol arguments per kind.
func (k Kind) Arity() int {
	switch k {
	case RefAttrs:
		return 4
	default:
		return 2
	}
}

// C is one constraint: Kind applied to Syms[:Kind.Arity()].
type C struct {
	Kind Kind
	Syms [4]template.Sym
}

// New builds a constraint, canonicalizing symmetric kinds so that equal
// constraints compare equal.
func New(k Kind, syms ...template.Sym) C {
	c := C{Kind: k}
	copy(c.Syms[:], syms)
	return c.canonical()
}

// canonical orders the arguments of a symmetric kind.
func (c C) canonical() C {
	switch c.Kind {
	case RelEq, AttrsEq, PredEq, AggrEq:
		if less(c.Syms[1], c.Syms[0]) {
			c.Syms[0], c.Syms[1] = c.Syms[1], c.Syms[0]
		}
	}
	return c
}

func less(a, b template.Sym) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.ID < b.ID
}

// Rename maps every argument through m; symbols m does not mention stay.
func (c C) Rename(m map[template.Sym]template.Sym) C {
	for i := range c.Syms[:c.Kind.Arity()] {
		if to, ok := m[c.Syms[i]]; ok {
			c.Syms[i] = to
		}
	}
	return c.canonical()
}

// Args returns the constraint's symbol arguments (length = the kind's arity).
func (c C) Args() []template.Sym {
	return append([]template.Sym(nil), c.Syms[:c.Kind.Arity()]...)
}

func (c C) String() string {
	// Memo and cache keys are built from this; it avoids fmt.
	b := make([]byte, 0, 32)
	b = append(b, c.Kind.String()...)
	for i, s := range c.Syms[:c.Kind.Arity()] {
		b = append(b, "(,,,"[i])
		b = append(b, s.Kind.String()...)
		b = strconv.AppendInt(b, int64(s.ID), 10)
	}
	return string(append(b, ')'))
}

// Set is an ordered set of constraints, immutable once built.
type Set struct {
	items []C
	index map[C]bool
	// closure memoizes Closure(s); concurrent first calls store equal sets.
	closure atomic.Pointer[Set]
}

// NewSet builds a set from the given constraints, deduplicating.
func NewSet(cs ...C) *Set {
	s := &Set{items: make([]C, 0, len(cs)), index: make(map[C]bool, len(cs))}
	for _, c := range cs {
		s.add(c)
	}
	return s
}

func (s *Set) add(c C) {
	if !s.index[c] {
		s.index[c] = true
		s.items = append(s.items, c)
	}
}

// Items returns the constraints in insertion order.
func (s *Set) Items() []C { return append([]C(nil), s.items...) }

// Len returns the number of constraints.
func (s *Set) Len() int { return len(s.items) }

// Has reports membership.
func (s *Set) Has(c C) bool { return s.index[c] }

// Without returns a new set with c removed.
func (s *Set) Without(c C) *Set {
	out := &Set{items: make([]C, 0, len(s.items)), index: make(map[C]bool, len(s.items))}
	for _, it := range s.items {
		if it != c {
			out.add(it)
		}
	}
	return out
}

// Union returns a new set with all constraints of both sets.
func (s *Set) Union(o *Set) *Set {
	out := NewSet(s.items...)
	for _, it := range o.items {
		out.add(it)
	}
	return out
}

// Key is a canonical string identifying the set's contents, independent of
// insertion order. Used for memoization in the rule search.
func (s *Set) Key() string {
	strs := make([]string, len(s.items))
	for i, c := range s.items {
		strs[i] = c.String()
	}
	sort.Strings(strs)
	return strings.Join(strs, ";")
}

// ByKind returns the constraints of one kind.
func (s *Set) ByKind(k Kind) []C {
	var out []C
	for _, c := range s.items {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

func (s *Set) String() string {
	strs := make([]string, len(s.items))
	for i, c := range s.items {
		strs[i] = c.String()
	}
	return "{" + strings.Join(strs, ", ") + "}"
}
