package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/template"
	"wetune/internal/verify"
)

// size2FingerprintsSHA256 pins the verdict of every distinct prover call the
// size-2 relaxation makes, rendered as sorted "<verdict> <src>=><dest>|<key>"
// lines with key the set's constraint.Set.Key. A change of which sets the
// relaxation asks about, of a verdict, or of Key's text moves it. It was
// re-recorded when the run-wide proof cache went: the lines used to be that
// cache's keys, with both templates' symbols renumbered, and now name the
// pair as Run searches it.
const size2FingerprintsSHA256 = "1a10ba0364f22e37cd2dffdf06334bf39823568041a141458ab49eb497eaa749"

// TestSize2FingerprintsGolden runs the size-2 discovery with the default
// prover's verdicts — its SMT node budget, without the wall-clock deadline,
// so that a slow machine cannot change a verdict — and hashes the calls its
// prover records: one "verdict pair|key" line per distinct call. It ties
// Run to the calls internal/verify/testdata/size2_proofs.golden replays.
func TestSize2FingerprintsGolden(t *testing.T) {
	var mu sync.Mutex
	lines := map[string]bool{}
	prover := func(src, dest *template.Node) Prover {
		pc := verify.NewPairContext(src, dest)
		pair := src.String() + "=>" + dest.String() + "|"
		return func(ctx context.Context, _, _ *template.Node, cs *constraint.Set) bool {
			opts := verify.DefaultOptions()
			opts.Context = ctx
			opts.SMT.MaxNodes = 20000
			opts.SMT.Deadline = 0
			v := pc.VerifyOpts(cs, opts).Outcome == verify.Verified
			verdict := "0 "
			if v {
				verdict = "1 "
			}
			mu.Lock()
			lines[verdict+pair+cs.Key()] = true
			mu.Unlock()
			return v
		}
	}
	res := Run(context.Background(), Options{
		Templates:  template.Enumerate(template.EnumOptions{MaxSize: 2}),
		PairProver: prover,
	})
	if len(res.Rules) != 69 || res.Stats.ProverCalls != 1523 {
		t.Fatalf("size-2 run: %d rules, %d prover calls; want 69 and 1523", len(res.Rules), res.Stats.ProverCalls)
	}
	sorted := make([]string, 0, len(lines))
	for l := range lines {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)
	var b strings.Builder
	for _, l := range sorted {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != size2FingerprintsSHA256 {
		t.Errorf("size-2 prover calls and verdicts hash to %s, want %s (%d distinct calls)", got, size2FingerprintsSHA256, len(sorted))
	}
}
