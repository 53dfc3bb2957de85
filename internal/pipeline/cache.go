package pipeline

import "wetune/internal/smt"

// ProofCache holds the smt.Memo of a discovery run: the SMT goals solved on
// the way to the run's verdicts, attached to every pair's context, so that a
// goal another constraint set or template pair poses again (the same closure,
// the same normal forms) is solved once. Verdicts themselves are memoized per
// pair, by constraint-set key, and outlive no pair: enumeration yields no two
// pairs that are renamings of each other, so a run-wide verdict store would
// never be hit. A caller that owns a cache may pass it to several runs with
// the same prover; nothing outlives the process. It is safe for concurrent
// use.
type ProofCache struct {
	memo smt.Memo
}

// NewProofCache returns an empty cache.
func NewProofCache() *ProofCache { return &ProofCache{} }
