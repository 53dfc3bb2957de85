package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// size2CacheFileSHA256 pins the text of every fingerprint the size-2
// relaxation computes, as ProofCache.SaveFile writes them: the file a
// `discover -cache` run leaves behind. A change of Fingerprint's text (of
// constraint.Set.Key's, say) silently turns every saved cache into misses;
// this hash was recorded before constraint sets held packed words.
const size2CacheFileSHA256 = "fc51becf6c86b670930359f1b2a71dc25a614e0d3a5033fa38d1e5fd528c814f"

// TestSize2FingerprintsGolden runs the size-2 discovery with the default
// prover's verdicts — its SMT node budget, without the wall-clock deadline,
// so that a slow machine cannot change a verdict — and hashes the saved proof
// cache: one "verdict fingerprint" line per distinct prover call.
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
	path := filepath.Join(t.TempDir(), "size2.cache")
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != size2CacheFileSHA256 {
		t.Errorf("saved size-2 proof cache hashes to %s, want %s (%d entries)", got, size2CacheFileSHA256, cache.Len())
	}
}
