package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wetune/internal/obs"
)

// size3RulesSHA256 is the sha256 of the size-3 algebraic discovery's rule
// strings, sorted, one per line.
const size3RulesSHA256 = "50a4d69dc9419f64b3ad50148a856ff08fb180314cb555698d81b439c3c1b114"

// TestSize3Discovery pins the size-3 discovery with the algebraic prover:
// how many pairs it generates, tries and skips at the C* cap, how many
// prover calls it makes, and the rules it finds. No verdict is shared
// between pairs, so the worker count moves none of them.
//
//	go test ./internal/pipeline -run TestSize3Discovery -size3 -v
func TestSize3Discovery(t *testing.T) {
	if !*size3 {
		t.Skip("runs under -size3")
	}
	res := Run(context.Background(), Options{
		MaxTemplateSize: 3,
		PairProver:      AlgebraicPairProver,
		Metrics:         obs.NewRegistry(),
	})
	st := res.Stats
	got := fmt.Sprintf("%d generated, %d tried, %d skipped, %d prover calls, %d rules",
		st.PairsGenerated, st.PairsTried, st.PairsSkipped, st.ProverCalls, len(res.Rules))
	if want := "13514 generated, 1129 tried, 12385 skipped, 17425 prover calls, 870 rules"; got != want {
		t.Errorf("size-3 run: %s; want %s", got, want)
	}
	lines := make([]string, len(res.Rules))
	for i, r := range res.Rules {
		lines[i] = r.String() + "\n"
	}
	sort.Strings(lines)
	if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "")))); sum != size3RulesSHA256 {
		t.Errorf("size-3 rules hash to %s, want %s", sum, size3RulesSHA256)
	}
	t.Logf("size 3: %s in %v", got, st.Elapsed)
}
