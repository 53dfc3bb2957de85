package smt

import (
	"context"
	"sync"

	"wetune/internal/fol"
	"wetune/internal/intern"
)

// Memo remembers what solving each distinct goal returned, so that a run
// which poses the same goal many times — from another constraint set with
// the same closure, or from another template pair whose normal forms meet —
// solves it once. A solve reads the memo from its context (WithMemo); one
// memo may be shared by goroutines that each solve in a pool of their own.
//
// A goal is keyed by its NNF re-interned into the memo's own pool, where
// pointer equality is exact structural equality, plus the bounds that shape
// the search (MaxNodes, InstRounds, MaxTermDepth). What a solve returns is a
// function of that key alone: the solver's orderings sort by canonical
// strings, never by pool history (package comment). The one exception is
// the clock, so a solve stopped by StopDeadline is never stored.
//
// The zero Memo is empty and ready to use; it allocates on its first lookup.
type Memo struct {
	mu           sync.Mutex
	pool         *intern.Pool
	solved       map[memoKey]memoEntry
	hits, misses int
}

type memoKey struct {
	goal                               fol.Formula // pooled in Memo.pool
	maxNodes, instRounds, maxTermDepth int
}

type memoEntry struct {
	res Result
	st  Stats
}

type memoCtxKey struct{}

// WithMemo returns a context whose solves (Options.Ctx) answer repeated goals
// from m.
func WithMemo(ctx context.Context, m *Memo) context.Context {
	return context.WithValue(ctx, memoCtxKey{}, m)
}

// memoOf returns the memo ctx carries, or nil.
func memoOf(ctx context.Context) *Memo {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(memoCtxKey{}).(*Memo)
	return m
}

// lookup returns the key of the NNF goal nf under opts and, if a solve of
// it was stored, what that solve returned.
func (m *Memo) lookup(nf fol.Formula, opts Options) (memoKey, memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pool == nil {
		m.pool, m.solved = intern.NewPool(), map[memoKey]memoEntry{}
	}
	k := memoKey{m.pool.Formula(nf), opts.MaxNodes, opts.InstRounds, opts.MaxTermDepth}
	e, ok := m.solved[k]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return k, e, ok
}

// store records what solving k returned, unless the clock stopped it.
func (m *Memo) store(k memoKey, res Result, st Stats) {
	if st.StoppedBy == StopDeadline {
		return
	}
	m.mu.Lock()
	m.solved[k] = memoEntry{res, st}
	m.mu.Unlock()
}

// Counts returns the lookups that found a stored solve, those that did not,
// and the number of stored solves.
func (m *Memo) Counts() (hits, misses, stored int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, len(m.solved)
}
