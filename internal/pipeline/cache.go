package pipeline

import (
	"sort"
	"sync"

	"wetune/internal/constraint"
	"wetune/internal/smt"
	"wetune/internal/template"
)

// ProofCache memoizes verifier verdicts within a discovery run. It is keyed
// by the canonical rule fingerprint (see fingerprint), so isomorphic
// candidates reached from different template pairs reuse one verdict instead
// of re-invoking the U-expression/FOL/SMT chain. A caller that owns a cache
// may pass it to several runs with the same prover; nothing outlives the
// process. All methods are safe for concurrent use.
//
// A rule the cache does not know may still pose an SMT goal that an earlier
// prover call solved: another constraint set with the same closure, or
// another template pair with the same normal forms. The cache also owns the
// smt.Memo that answers those, attached to every pair's context, so each
// distinct goal is solved once for as long as the verdicts live.
type ProofCache struct {
	mu   sync.RWMutex
	m    map[string]bool
	memo smt.Memo
}

// NewProofCache returns an empty cache.
func NewProofCache() *ProofCache {
	return &ProofCache{m: map[string]bool{}}
}

// Get returns the cached verdict for a fingerprint. The caller counts the
// hit or miss (Stats, pipeline_cache_hits/_misses).
func (c *ProofCache) Get(key string) (verdict, ok bool) {
	c.mu.RLock()
	verdict, ok = c.m[key]
	c.mu.RUnlock()
	return verdict, ok
}

// Put records a verdict. Callers must not store verdicts obtained from an
// interrupted proof (a cancelled prover conservatively answers false, which
// would poison warm runs).
func (c *ProofCache) Put(key string, verdict bool) {
	c.mu.Lock()
	c.m[key] = verdict
	c.mu.Unlock()
}

// Len returns the number of cached verdicts.
func (c *ProofCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// fingerprint is the canonical identity of a candidate rule: both templates
// with symbols renumbered in first-occurrence order (src first, then dest)
// plus the constraint set under the same renumbering, order-normalized.
// Structurally identical candidates fingerprint identically regardless of the
// symbol IDs a particular enumeration assigned.
func fingerprint(src, dest *template.Node, cs *constraint.Set) string {
	fp := newFingerprinter(src, dest)
	return fp.key(cs)
}

// fingerprinter caches the per-pair canonical symbol renaming so that the
// relaxation loop fingerprints many constraint sets against fixed templates
// without recomputing it.
type fingerprinter struct {
	m      map[template.Sym]template.Sym
	next   map[template.SymKind]int
	prefix string // both templates renamed, then "|"
}

func newFingerprinter(src, dest *template.Node) *fingerprinter {
	fp := &fingerprinter{
		m:    map[template.Sym]template.Sym{},
		next: map[template.SymKind]int{},
	}
	for _, s := range src.Symbols() {
		fp.assign(s)
	}
	for _, s := range dest.Symbols() {
		fp.assign(s)
	}
	fp.prefix = src.Substitute(fp.m).String() + "=>" + dest.Substitute(fp.m).String() + "|"
	return fp
}

// assign gives s a canonical ID. The implicit a_r symbol follows its
// relation's renaming so that AttrsOf stays consistent.
func (fp *fingerprinter) assign(s template.Sym) {
	if _, ok := fp.m[s]; ok {
		return
	}
	if s.Kind == template.KAttrsOf {
		rel := template.Sym{Kind: template.KRel, ID: s.ID}
		fp.assign(rel)
		fp.m[s] = template.AttrsOf(fp.m[rel])
		return
	}
	fp.m[s] = template.Sym{Kind: s.Kind, ID: fp.next[s.Kind]}
	fp.next[s.Kind]++
}

func (fp *fingerprinter) key(cs *constraint.Set) string {
	// Symbols occurring only in constraints (possible for abstracted plan
	// pairs) get canonical IDs in sorted order, deterministically.
	var extra []template.Sym
	for i := 0; i < cs.Len(); i++ {
		c := cs.At(i)
		for _, s := range c.Syms[:c.Kind.Arity()] {
			if _, ok := fp.m[s]; !ok {
				extra = append(extra, s)
			}
		}
	}
	if len(extra) > 0 {
		sort.Slice(extra, func(i, j int) bool {
			if extra[i].Kind != extra[j].Kind {
				return extra[i].Kind < extra[j].Kind
			}
			return extra[i].ID < extra[j].ID
		})
		for _, s := range extra {
			fp.assign(s)
		}
	}
	return cs.RenamedKey(fp.prefix, fp.m)
}
