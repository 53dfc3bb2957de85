package pipeline

import (
	"context"
	"errors"
	"testing"

	"wetune/internal/constraint"
	"wetune/internal/template"
)

// TestCutRunSaysSo: a run whose context expired before it began reports the
// cut with every one of size 2's 250 pairs unsearched, a run cancelled
// mid-search reports some, and a complete run reports none.
func TestCutRunSaysSo(t *testing.T) {
	ts := template.Enumerate(template.EnumOptions{MaxSize: 2})
	expired, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	res := Run(expired, Options{Templates: ts, PairProver: AlgebraicPairProver})
	if cut := res.Stats.Cut; cut == nil || !errors.Is(cut.Cause, context.DeadlineExceeded) || cut.Unsearched != 250 {
		t.Errorf("expired run: Cut = %+v, want DeadlineExceeded with 250 pairs unsearched", cut)
	}

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	calls := 0
	res = Run(ctx, Options{Templates: ts, Workers: 1, PairProver: func(src, dest *template.Node) Prover {
		inner := AlgebraicPairProver(src, dest)
		return func(ctx context.Context, s, d *template.Node, cs *constraint.Set) bool {
			if calls++; calls == 300 {
				stop()
			}
			return inner(ctx, s, d, cs)
		}
	}})
	if cut := res.Stats.Cut; cut == nil || !errors.Is(cut.Cause, context.Canceled) || cut.Unsearched <= 0 || cut.Unsearched >= 250 {
		t.Errorf("run cancelled at its 300th prover call: Cut = %+v, want Canceled with 1 to 249 pairs unsearched", cut)
	}

	if res := Run(context.Background(), Options{Templates: ts, PairProver: AlgebraicPairProver}); res.Stats.Cut != nil {
		t.Errorf("complete run: Cut = %+v, want nil", res.Stats.Cut)
	}
}

// TestPairsFromCountsWhatGenerationLeaves: counting by operator-count
// classes gives what pair generation's own loop would still make from every
// position of the size-2 template list.
func TestPairsFromCountsWhatGenerationLeaves(t *testing.T) {
	ts := template.Enumerate(template.EnumOptions{MaxSize: 2})
	var left []int64 // left[i*len(ts)+j]: pairs from position (i, j) on
	var n int64
	for i := len(ts) - 1; i >= 0; i-- {
		for j := len(ts) - 1; j >= 0; j-- {
			if ts[j].NotMoreOpsThan(ts[i]) {
				n++
			}
			left = append(left, n)
		}
	}
	for k, want := range left {
		i, j := len(ts)-1-k/len(ts), len(ts)-1-k%len(ts)
		if got := pairsFrom(ts, i, j); got != want {
			t.Fatalf("pairsFrom(%d, %d) = %d, want %d", i, j, got, want)
		}
	}
	if left[len(left)-1] != 250 {
		t.Errorf("size 2 makes %d pairs, want 250", left[len(left)-1])
	}
}
