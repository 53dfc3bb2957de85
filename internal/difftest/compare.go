// Package difftest is WeTune's differential-testing oracle: a deterministic,
// seed-driven fuzzer that generates random schemas, random data (via
// internal/datagen) and random query plans, applies every rewrite rule through
// internal/rewrite, executes source and rewritten plans on internal/engine and
// compares results under bag semantics. On a mismatch it shrinks the
// counterexample (fewer rows, fewer tables, smaller constants) and emits a
// replayable JSON repro artifact.
//
// The oracle is the empirical ground truth the paper obtains from a real DBMS
// (§8): the symbolic verifier chain (§5) must never bless a rule the engine
// refutes on concrete data. It is exposed three ways — the `wetune fuzz` CLI
// subcommand, the discovery pipeline's cross-check hook, and Go native fuzz
// targets (FuzzRewriteRoundTrip, FuzzParserPrinter).
package difftest

import (
	"fmt"
	"sort"
	"strings"

	"wetune/internal/engine"
)

// SortRows orders rows by their canonical key, in place. Engines return rows
// in operator order; sorting gives the order-insensitive view bag comparisons
// and golden tests need.
func SortRows(rows []engine.Row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key(nil) < rows[j].Key(nil) })
}

// CanonRows returns the sorted multiset of row keys.
func CanonRows(rows []engine.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key(nil)
	}
	sort.Strings(keys)
	return keys
}

// Canon renders rows as one canonical multiset string (order-insensitive).
func Canon(rows []engine.Row) string { return strings.Join(CanonRows(rows), "\n") }

// BagEqual reports whether two row sets are equal under bag (multiset)
// semantics: same rows with the same multiplicities, in any order.
func BagEqual(a, b []engine.Row) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[string]int, len(a))
	for _, r := range a {
		counts[r.Key(nil)]++
	}
	for _, r := range b {
		k := r.Key(nil)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// ResultsEqual is BagEqual over executed results.
func ResultsEqual(a, b *engine.Result) bool { return BagEqual(a.Rows, b.Rows) }

// DiffBags explains a bag inequality: rows present in one side but not the
// other, with multiplicities. Returns "" when the bags are equal.
func DiffBags(a, b []engine.Row) string {
	counts := map[string]int{}
	for _, r := range a {
		counts[r.Key(nil)]++
	}
	for _, r := range b {
		counts[r.Key(nil)]--
	}
	var onlyA, onlyB []string
	for k, n := range counts {
		switch {
		case n > 0:
			onlyA = append(onlyA, fmt.Sprintf("%s ×%d", k, n))
		case n < 0:
			onlyB = append(onlyB, fmt.Sprintf("%s ×%d", k, -n))
		}
	}
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return ""
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	var sb strings.Builder
	fmt.Fprintf(&sb, "left has %d rows, right has %d rows", len(a), len(b))
	if len(onlyA) > 0 {
		sb.WriteString("\nonly in left:\n  " + strings.Join(onlyA, "\n  "))
	}
	if len(onlyB) > 0 {
		sb.WriteString("\nonly in right:\n  " + strings.Join(onlyB, "\n  "))
	}
	return sb.String()
}
