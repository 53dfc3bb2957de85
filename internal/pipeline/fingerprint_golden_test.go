package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// size2FingerprintsSHA256 pins the fingerprint and verdict of every distinct
// prover call the size-2 relaxation makes, rendered as sorted
// "<verdict> <fingerprint>" lines. A change of fingerprint's text (of
// constraint.Set.Key's, say) or of which isomorphic candidates share one
// key moves it; this hash was recorded before constraint sets held packed
// words.
const size2FingerprintsSHA256 = "fc51becf6c86b670930359f1b2a71dc25a614e0d3a5033fa38d1e5fd528c814f"

// TestSize2FingerprintsGolden runs the size-2 discovery with the default
// prover's verdicts — its SMT node budget, without the wall-clock deadline,
// so that a slow machine cannot change a verdict — and hashes the run's
// proof cache: one "verdict fingerprint" line per distinct prover call.
func TestSize2FingerprintsGolden(t *testing.T) {
	prover := func(src, dest *template.Node) Prover {
		pc := verify.NewPairContext(src, dest)
		return func(ctx context.Context, _, _ *template.Node, cs *constraint.Set) bool {
			opts := verify.DefaultOptions()
			opts.Context = ctx
			opts.SMT.MaxNodes = 20000
			opts.SMT.Deadline = 0
			return pc.VerifyOpts(cs, opts).Outcome == verify.Verified
		}
	}
	cache := NewProofCache()
	res := Run(context.Background(), Options{
		Templates:  template.Enumerate(template.EnumOptions{MaxSize: 2}),
		PairProver: prover,
		Cache:      cache,
	})
	if len(res.Rules) != 69 || res.Stats.ProverCalls != 1523 {
		t.Fatalf("size-2 run: %d rules, %d prover calls; want 69 and 1523", len(res.Rules), res.Stats.ProverCalls)
	}
	keys := make([]string, 0, cache.Len())
	for k := range cache.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v := "0"
		if cache.m[k] {
			v = "1"
		}
		fmt.Fprintf(&b, "%s %s\n", v, k)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != size2FingerprintsSHA256 {
		t.Errorf("size-2 fingerprints and verdicts hash to %s, want %s (%d entries)", got, size2FingerprintsSHA256, len(keys))
	}
}
