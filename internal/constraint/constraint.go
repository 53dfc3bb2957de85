// Package constraint implements WeTune's constraint language (§4.2): the
// predicates that relate symbols of a source and destination template, the
// exhaustive enumeration of the candidate set C*, and the implication
// ("closure") reasoning used to prune the search for most-relaxed sets.
package constraint

import (
	"bytes"
	"fmt"
	"slices"
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

func (c C) String() string { return string(c.appendTo(make([]byte, 0, 32))) }

// appendTo appends the text String returns; memo keys are built
// from it, so it avoids fmt.
func (c C) appendTo(b []byte) []byte {
	b = append(b, c.Kind.String()...)
	for i, s := range c.Syms[:c.Kind.Arity()] {
		b = append(b, "(,,,"[i])
		b = append(b, s.Kind.String()...)
		b = strconv.AppendInt(b, int64(s.ID), 10)
	}
	return append(b, ')')
}

// packed squeezes c into one word — 3 bits of kind, then 3 of kind and 12 of
// ID per symbol — so that distinct constraints have distinct words. ok is
// false when a field does not fit (an ID past 4095, say). Bit 63 of a packed
// word is always clear.
func (c C) packed() (key uint64, ok bool) {
	key = uint64(c.Kind)
	ok = key < 8
	for _, s := range c.Syms {
		ok = ok && uint(s.Kind) < 8 && uint(s.ID) < 1<<12
		key = key<<15 | uint64(s.Kind)<<12 | uint64(s.ID)&(1<<12-1)
	}
	return key, ok
}

// unpack is the inverse of packed.
func unpack(w uint64) C {
	c := C{Kind: Kind(w >> 60)}
	for i := range c.Syms {
		f := w >> (45 - 15*i)
		c.Syms[i] = template.Sym{Kind: template.SymKind(f >> 12 & 7), ID: int(f & (1<<12 - 1))}
	}
	return c
}

// tag is bit 63, which no packed word sets. In a set's words it marks a
// member that does not pack, tag|i standing for wide[i]; in its table it
// marks an occupied slot, tag|w holding the packed word w.
const tag = 1 << 63

// Set is an ordered set of constraints, immutable once built (Without may
// rebuild a set its caller no longer reads in place). Its members
// are words: the packed word of each member, in insertion order, beside an
// open-addressed table of those words for membership. A member that does not
// pack — an ID past 4095 or negative, a kind past 7, in practice never — is
// kept whole in wide and looked up there by a scan.
type Set struct {
	words []uint64
	table []uint64 // linear probing, at most half full; 0 is an empty slot
	wide  []C
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

// newSet returns an empty set with room for capacity members, words and
// table in one allocation.
func newSet(capacity int) *Set {
	n := tableSize(capacity)
	buf := make([]uint64, capacity+n)
	return &Set{words: buf[:0:capacity], table: buf[capacity:]}
}

// tableSize is the table length for n members: a power of two, at least 2n.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// home is the slot where probing for w starts (Fibonacci hashing).
func home(w uint64, mask int) int { return int((w*0x9e3779b97f4a7c15)>>32) & mask }

// find returns the table slot holding w, or the empty slot where it belongs.
func (s *Set) find(w uint64) (slot int, in bool) {
	mask := len(s.table) - 1
	for i := home(w, mask); ; i = (i + 1) & mask {
		switch s.table[i] {
		case 0:
			return i, false
		case w | tag:
			return i, true
		}
	}
}

func (s *Set) add(c C) {
	if w, ok := c.packed(); ok {
		s.addWord(w)
	} else if !slices.Contains(s.wide, c) {
		s.words = append(s.words, tag|uint64(len(s.wide)))
		s.wide = append(s.wide, c)
	}
}

// addWord adds the packed member w unless it is present.
func (s *Set) addWord(w uint64) {
	i, in := s.find(w)
	if in {
		return
	}
	if 2*(len(s.words)-len(s.wide)+1) > len(s.table) {
		s.rehash(2 * len(s.table))
		i, _ = s.find(w)
	}
	s.table[i] = w | tag
	s.words = append(s.words, w)
}

// rehash moves the packed members into a table of the given size.
func (s *Set) rehash(size int) {
	s.table = make([]uint64, size)
	for _, w := range s.words {
		if w&tag == 0 {
			i, _ := s.find(w)
			s.table[i] = w | tag
		}
	}
}

// At returns the i-th member in insertion order, 0 <= i < Len().
func (s *Set) At(i int) C {
	w := s.words[i]
	if w&tag != 0 {
		return s.wide[w&^tag]
	}
	return unpack(w)
}

// kindAt returns the kind of the i-th member without decoding the rest.
func (s *Set) kindAt(i int) Kind {
	w := s.words[i]
	if w&tag != 0 {
		return s.wide[w&^tag].Kind
	}
	return Kind(w >> 60)
}

// Items returns the constraints in insertion order.
func (s *Set) Items() []C {
	out := make([]C, len(s.words))
	for i := range out {
		out[i] = s.At(i)
	}
	return out
}

// Len returns the number of constraints.
func (s *Set) Len() int { return len(s.words) }

// Has reports membership.
func (s *Set) Has(c C) bool {
	if w, ok := c.packed(); ok {
		_, in := s.find(w)
		return in
	}
	return slices.Contains(s.wide, c)
}

// Without returns the set s with c removed. A nil into makes a new set;
// otherwise the set is built in into, which is overwritten and its storage
// reused, so into must be a set that nothing reads any more (and not s).
func (s *Set) Without(c C, into *Set) *Set {
	out := into
	if out == nil {
		out = newSet(len(s.words))
	} else {
		out.clear()
	}
	for i := range s.words {
		if m := s.At(i); m != c {
			out.add(m)
		}
	}
	return out
}

// clear empties s, keeping its storage and forgetting its closure.
func (s *Set) clear() {
	s.words, s.wide = s.words[:0], s.wide[:0]
	clear(s.table)
	s.closure.Store(nil)
}

// Union returns a new set with all constraints of both sets.
func (s *Set) Union(o *Set) *Set {
	out := newSet(len(s.words) + len(o.words))
	for i := range s.words {
		out.add(s.At(i))
	}
	for i := range o.words {
		out.add(o.At(i))
	}
	return out
}

// Key is a canonical string identifying the set's contents, independent of
// insertion order: the members' strings, sorted, joined by ";". Used for
// memoization in the rule search. It renders every member once into scratch
// and writes the result string from there, so it allocates that string and,
// for large sets, the scratch.
func (s *Set) Key() string {
	type span struct{ from, to int }
	var bufArr [2048]byte
	var spanArr [128]span
	buf, spans := bufArr[:0], spanArr[:0]
	for i := range s.words {
		from := len(buf)
		buf = s.At(i).appendTo(buf)
		spans = append(spans, span{from, len(buf)})
	}
	slices.SortFunc(spans, func(a, b span) int { return bytes.Compare(buf[a.from:a.to], buf[b.from:b.to]) })
	var out strings.Builder
	out.Grow(len(buf) + len(spans))
	for k, sp := range spans {
		if k > 0 {
			out.WriteByte(';')
		}
		out.Write(buf[sp.from:sp.to])
	}
	return out.String()
}

// ByKind returns the constraints of one kind.
func (s *Set) ByKind(k Kind) []C {
	var out []C
	for i := range s.words {
		if c := s.At(i); c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

func (s *Set) String() string {
	b := []byte{'{'}
	for i := range s.words {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = s.At(i).appendTo(b)
	}
	return string(append(b, '}'))
}
