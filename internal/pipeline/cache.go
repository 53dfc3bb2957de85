package pipeline

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"wetune/internal/constraint"
	"wetune/internal/smt"
	"wetune/internal/template"
)

// ProofCache memoizes verifier verdicts across pipeline stages and runs. It
// is keyed by the canonical rule fingerprint (see Fingerprint), so the same
// candidate rule reached from enumeration, rule reduction, or a repeated CLI
// run reuses the verdict instead of re-invoking the U-expression/FOL/SMT
// chain. All methods are safe for concurrent use.
//
// A rule the cache does not know may still pose an SMT goal that an earlier
// prover call solved: another constraint set with the same closure, or
// another template pair with the same normal forms. The cache also owns the
// smt.Memo that answers those, attached to every pair's context, so each
// distinct goal is solved once for as long as the verdicts live. The memo is
// not persisted by SaveFile.
type ProofCache struct {
	mu   sync.RWMutex
	m    map[string]bool
	memo smt.Memo
}

// NewProofCache returns an empty cache.
func NewProofCache() *ProofCache {
	return &ProofCache{m: map[string]bool{}}
}

var shared = NewProofCache()

// Shared returns the process-wide cache used by wetune.Discover, rule
// reduction and the CLI.
func Shared() *ProofCache { return shared }

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

// SaveFile persists the cache as "verdict fingerprint" lines, so repeated CLI
// runs can reuse verdicts across processes.
func (c *ProofCache) SaveFile(path string) error {
	c.mu.RLock()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v := "0"
		if c.m[k] {
			v = "1"
		}
		fmt.Fprintf(&b, "%s %s\n", v, k)
	}
	c.mu.RUnlock()
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// LoadFile merges persisted verdicts into the cache. A missing file is not an
// error (first run).
func (c *ProofCache) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	c.mu.Lock()
	defer c.mu.Unlock()
	for sc.Scan() {
		line := sc.Text()
		verdict, key, ok := strings.Cut(line, " ")
		if !ok || (verdict != "0" && verdict != "1") {
			continue
		}
		c.m[key] = verdict == "1"
	}
	return sc.Err()
}

// Fingerprint is the canonical identity of a candidate rule: both templates
// with symbols renumbered in first-occurrence order (src first, then dest)
// plus the constraint set under the same renumbering, order-normalized.
// Structurally identical candidates fingerprint identically regardless of the
// symbol IDs a particular enumeration assigned.
func Fingerprint(src, dest *template.Node, cs *constraint.Set) string {
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
