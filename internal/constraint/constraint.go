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

// packed squeezes c into one word — 3 bits of kind, then 3 of kind and 12 of
// ID per symbol — so that distinct constraints have distinct words. ok is
// false when a field does not fit (an ID past 4095, say).
func (c C) packed() (key uint64, ok bool) {
	key = uint64(c.Kind)
	ok = key < 8
	for _, s := range c.Syms {
		ok = ok && uint(s.Kind) < 8 && uint(s.ID) < 1<<12
		key = key<<15 | uint64(s.Kind)<<12 | uint64(s.ID)&(1<<12-1)
	}
	return key, ok
}

// index is a membership table of constraints: packed holds the word of every
// member that has one — in practice all of them — so that a probe hashes 8
// bytes, not the 72 of a C; wide holds the others whole.
type index struct {
	packed map[uint64]struct{}
	wide   map[C]struct{}
}

func newIndex(capacity int) index {
	return index{packed: make(map[uint64]struct{}, capacity)}
}

// insert adds c and reports whether it was absent. (Probe, then assign: an
// assignment alone would grow a full small map even for a key it holds.)
func (ix *index) insert(c C) bool {
	if key, ok := c.packed(); ok {
		if _, dup := ix.packed[key]; dup {
			return false
		}
		ix.packed[key] = struct{}{}
		return true
	}
	if _, dup := ix.wide[c]; dup {
		return false
	}
	if ix.wide == nil {
		ix.wide = map[C]struct{}{}
	}
	ix.wide[c] = struct{}{}
	return true
}

func (ix *index) has(c C) bool {
	if key, ok := c.packed(); ok {
		_, in := ix.packed[key]
		return in
	}
	_, in := ix.wide[c]
	return in
}

func (ix *index) clear() {
	clear(ix.packed)
	clear(ix.wide)
}

// Set is an ordered set of constraints, immutable once built.
type Set struct {
	items []C
	index index
	// closure memoizes Closure(s); concurrent first calls store equal sets.
	closure atomic.Pointer[Set]
}

// NewSet builds a set from the given constraints, deduplicating.
func NewSet(cs ...C) *Set {
	s := newSet(len(cs))
	for _, c := range cs {
		s.add(c)
	}
	return s
}

func newSet(capacity int) *Set {
	return &Set{items: make([]C, 0, capacity), index: newIndex(capacity)}
}

func (s *Set) add(c C) {
	if s.index.insert(c) {
		s.items = append(s.items, c)
	}
}

// Items returns the constraints in insertion order.
func (s *Set) Items() []C { return append([]C(nil), s.items...) }

// Len returns the number of constraints.
func (s *Set) Len() int { return len(s.items) }

// Has reports membership.
func (s *Set) Has(c C) bool { return s.index.has(c) }

// Without returns a new set with c removed.
func (s *Set) Without(c C) *Set {
	out := newSet(len(s.items))
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
